package store_test

import (
	"fmt"
	"testing"

	"flit/internal/store"
	"flit/internal/workload"
)

// BenchmarkSessionCommit runs one op stream — alternating in-place Put and
// Get on uniform keys of a loaded store (8 shards, flit-ht, automatic,
// virtual clock) — through every session mode, one Apply of depth ops and
// one Commit per window; b.N counts ops. Beside ns/op it reports the exact
// persistence cost per op, summed over every pmem thread (a Combined
// session's ops run on the shard combiners' threads): fences/op and lines
// drained/op. Direct commits each op on its own fence at either depth;
// Batched and Combined commit a window under one fence, none when the
// window left nothing pending.
func BenchmarkSessionCommit(b *testing.B) {
	const records = 1 << 12
	keys := make([][]byte, records)
	for i := range keys {
		keys[i] = workload.AppendKey(nil, uint64(i))
	}
	for _, mode := range store.SessionModes {
		for _, depth := range []int{1, 32} {
			b.Run(fmt.Sprintf("%s/d%d", mode, depth), func(b *testing.B) {
				st, err := store.New(store.Options{Shards: 8, ExpectedKeys: 2 * records, VirtualClock: true})
				if err != nil {
					b.Fatal(err)
				}
				workload.Load(st, records, 1)
				sess := store.Open[[]byte](st, mode)
				defer sess.Close()
				ops := make([]store.Op[[]byte], depth)
				res := make([]store.Result, depth)
				var next uint64
				before := st.Mem().TotalStats()
				b.ReportAllocs()
				b.ResetTimer()
				done := 0
				for ; done < b.N; done += depth {
					for j := range ops {
						next++
						ops[j] = store.Op[[]byte]{Kind: store.OpGet, Key: keys[(next*2654435761)&(records-1)]}
						if next&1 == 1 {
							ops[j].Kind, ops[j].Val = store.OpPut, next
						}
					}
					sess.Apply(ops, res)
					sess.Commit()
				}
				b.StopTimer()
				after := st.Mem().TotalStats()
				n := float64(done)
				b.ReportMetric(float64(after.PFences-before.PFences)/n, "fences/op")
				b.ReportMetric(float64(after.Drained-before.Drained)/n, "drained/op")
			})
		}
	}
}
