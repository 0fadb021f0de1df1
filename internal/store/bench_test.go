package store_test

import (
	"fmt"
	"sync"
	"testing"

	"flit/internal/store"
	"flit/internal/workload"
)

// commitStream is one session running the commit-window op stream:
// alternating in-place Put and Get on uniform keys of a loaded store (8
// shards, flit-ht, automatic, virtual clock), one Apply of depth ops and
// one Commit per window. BenchmarkSessionCommit times it and
// TestSessionCommitCounts pins its exact persistence cost.
type commitStream struct {
	st   *store.Store
	sess *store.Sess[[]byte]
	keys [][]byte
	ops  []store.Op[[]byte]
	res  []store.Result
	next uint64 // ops generated so far
}

const (
	commitRecords = 1 << 12
	commitShards  = 8
)

// loadedStore is the store the commit-window benchmarks run on and its
// loaded keys.
func loadedStore(tb testing.TB) (*store.Store, [][]byte) {
	st, err := store.New(store.Options{Shards: commitShards, ExpectedKeys: 2 * commitRecords, VirtualClock: true})
	if err != nil {
		tb.Fatal(err)
	}
	store.CheckAccount(tb, st)
	workload.Load(st, commitRecords, 1)
	keys := make([][]byte, commitRecords)
	for i := range keys {
		keys[i] = workload.AppendKey(nil, uint64(i))
	}
	return st, keys
}

func newCommitStream(tb testing.TB, mode store.SessionMode, depth int) *commitStream {
	st, keys := loadedStore(tb)
	sess := store.Open[[]byte](st, mode)
	tb.Cleanup(sess.Close)
	return &commitStream{st: st, sess: sess, keys: keys,
		ops: make([]store.Op[[]byte], depth), res: make([]store.Result, depth)}
}

// op is the stream's i-th op (1-based): a Put when i is odd, else a Get.
func (c *commitStream) op(i uint64) store.Op[[]byte] {
	op := store.Op[[]byte]{Kind: store.OpGet, Key: c.keys[(i*2654435761)&(commitRecords-1)]}
	if i&1 == 1 {
		op.Kind, op.Val = store.OpPut, i
	}
	return op
}

// run executes whole windows until at least n ops ran and returns how
// many did.
func (c *commitStream) run(n int) int {
	done := 0
	for ; done < n; done += len(c.ops) {
		for j := range c.ops {
			c.next++
			c.ops[j] = c.op(c.next)
		}
		c.sess.Apply(c.ops, c.res)
		c.sess.Commit()
	}
	return done
}

// measure runs n ops and returns fences and lines drained per op, summed
// over every pmem thread (a Combined session's ops run on the thread of
// the store's combiner).
func (c *commitStream) measure(n int) (fences, drained float64) {
	before := c.st.Mem().TotalStats()
	done := float64(c.run(n))
	after := c.st.Mem().TotalStats()
	return float64(after.PFences-before.PFences) / done, float64(after.Drained-before.Drained) / done
}

// BenchmarkSessionCommit times the commit-window op stream (commitStream)
// through every session mode; b.N counts ops. Beside ns/op it reports the
// exact persistence cost per op that TestSessionCommitCounts pins:
// fences/op and lines drained/op.
func BenchmarkSessionCommit(b *testing.B) {
	for _, mode := range store.SessionModes {
		for _, depth := range []int{1, 32} {
			b.Run(fmt.Sprintf("%s/d%d", mode, depth), func(b *testing.B) {
				c := newCommitStream(b, mode, depth)
				b.ReportAllocs()
				b.ResetTimer()
				fences, drained := c.measure(b.N)
				b.StopTimer()
				b.ReportMetric(fences, "fences/op")
				b.ReportMetric(drained, "drained/op")
			})
		}
	}
}

// BenchmarkCombinedAnnouncers runs 1 to 16 concurrent Combined sessions,
// each issuing depth-1 in-place Puts on the loaded store's uniform keys;
// b.N counts Puts over all sessions. It reports ns/op and the exact
// fences/op and pwbs/op summed over every pmem thread: what one
// store-wide combining window saves as announcers pile up.
func BenchmarkCombinedAnnouncers(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			st, keys := loadedStore(b)
			sess := make([]*store.Sess[[]byte], n)
			for w := range sess {
				sess[w] = store.Open[[]byte](st, store.Combined)
				b.Cleanup(sess[w].Close)
			}
			before := st.Mem().TotalStats()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w, s := range sess {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := uint64(w); i < uint64(b.N); i += uint64(n) {
						s.Put(keys[(i*2654435761)&(commitRecords-1)], i)
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			after := st.Mem().TotalStats()
			b.ReportMetric(float64(after.PFences-before.PFences)/float64(b.N), "fences/op")
			b.ReportMetric(float64(after.PWBs-before.PWBs)/float64(b.N), "pwbs/op")
		})
	}
}

// TestSessionCommitCounts pins the commit-window stream's exact
// persistence cost per mode and depth over a fixed op count. Direct
// commits each op on its own fence at either depth. Batched and Combined
// commit a window under one fence, none when the window left nothing
// pending: a Batched window is the whole Apply, and so is a lone
// Combined session's, whichever shards its ops touch. Every in-place Put
// drains its value's line once and a Get drains nothing: 0.5 lines per
// op everywhere.
func TestSessionCommitCounts(t *testing.T) {
	const n = 4096
	for _, mode := range store.SessionModes {
		for _, depth := range []int{1, 32} {
			c := newCommitStream(t, mode, depth)
			var want float64
			switch {
			case mode == store.Direct:
				want = 1
			case depth == 1:
				want = 0.5
			default:
				want = 1.0 / float64(depth)
			}
			fences, drained := c.measure(n)
			if fences != want || drained != 0.5 {
				t.Errorf("%s/d%d: %v fences/op and %v drained/op, want %v and 0.5", mode, depth, fences, drained, want)
			}
		}
	}
}
