package store

import (
	"fmt"
	"sync"
	"testing"

	"flit/internal/core"
	"flit/internal/dstruct/hashtable"
	"flit/internal/dstruct/list"
	"flit/internal/pmem"
)

// imageOfStore cuts the power on a quiescent store: its crash image, the
// memory configuration to reload it with, and the watermark to carry.
func imageOfStore(st *Store) ([]uint64, pmem.Config, uint64) {
	return st.Mem().CrashImage(pmem.DropUnfenced, 1), st.Mem().Config(), st.Heap().Watermark()
}

// checkHolds fails unless st2 has n shards and serves exactly want, every
// key from the shard the count assigns it.
func checkHolds(t *testing.T, st2 *Store, n int, want map[uint64]uint64) {
	t.Helper()
	if err := holds(st2, []int{n}, want); err != nil {
		t.Fatal(err)
	}
}

// holds is checkHolds as an error, for sweeps that must count failures;
// the shard count may be any of counts.
func holds(st2 *Store, counts []int, want map[uint64]uint64) error {
	n := st2.NumShards()
	ok := false
	for _, c := range counts {
		ok = ok || c == n
	}
	if !ok {
		return fmt.Errorf("%d shards, want one of %v", n, counts)
	}
	total := 0
	for i, tb := range st2.tables {
		for k, v := range tb.Snapshot() {
			if w, has := want[k]; !has || w != v {
				return fmt.Errorf("shard %d holds %#x→%d, want (%d, present=%v)", i, k, v, w, has)
			}
			if shardIdx(k, n) != i {
				return fmt.Errorf("key %#x sits in shard %d of %d, routing looks in %d", k, i, n, shardIdx(k, n))
			}
			total++
		}
	}
	if total != len(want) {
		return fmt.Errorf("%d keys in %d shards, want %d", total, n, len(want))
	}
	return nil
}

// TestReshardThenRecover: a reshard returns the new geometry with the full
// keyspace, and so does a later recovery of its image.
func TestReshardThenRecover(t *testing.T) {
	st := newTestStore(t, Options{Shards: 4, ExpectedKeys: 1 << 11})
	sess := Open[string](st, Direct)
	for k := 0; k < 300; k++ {
		sess.Put(fmt.Sprintf("sr-%d", k), uint64(k)*3)
	}
	sess.Close()
	want := st.Snapshot()

	img, cfg, wm := imageOfStore(st)
	st2, rstats, err := Reshard(pmem.NewFromImage(img, cfg), wm, st.Opts(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Keys != len(want) || len(rstats.Shards) != 6 || st2.LastRecovery() == nil {
		t.Fatalf("reshard stats %+v, want %d keys over 6 shards", rstats, len(want))
	}
	checkHolds(t, st2, 6, want)

	img, cfg, wm = imageOfStore(st2)
	st3, _, err := Recover(pmem.NewFromImage(img, cfg), wm, st.Opts())
	if err != nil {
		t.Fatal(err)
	}
	checkHolds(t, st3, 6, want)
	check := Open[string](st3, Direct)
	defer check.Close()
	for k := 0; k < 300; k++ {
		if v, ok := check.Get(fmt.Sprintf("sr-%d", k)); !ok || v != uint64(k)*3 {
			t.Fatalf("Get(sr-%d) = (%d,%v) after reshard and recovery, want (%d,true)", k, v, ok, k*3)
		}
	}
}

// TestReshardChainsAcrossGenerations: a second reshard re-anchors the
// shards the first one grew (their anchors move to the new directory), and
// both generations survive a recovery.
func TestReshardChainsAcrossGenerations(t *testing.T) {
	st := newTestStore(t, Options{Shards: 2, ExpectedKeys: 1 << 10})
	sess := Open[string](st, Direct)
	for k := 0; k < 200; k++ {
		sess.Put(fmt.Sprintf("g-%d", k), uint64(k))
	}
	sess.Close()
	want := st.Snapshot()
	for _, target := range []int{3, 5} {
		img, cfg, wm := imageOfStore(st)
		var err error
		if st, _, err = Reshard(pmem.NewFromImage(img, cfg), wm, st.Opts(), target); err != nil {
			t.Fatalf("Reshard to %d: %v", target, err)
		}
		checkHolds(t, st, target, want)
	}
	img, cfg, wm := imageOfStore(st)
	st2, rstats, err := Recover(pmem.NewFromImage(img, cfg), wm, st.Opts())
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Keys != len(want) {
		t.Fatalf("recovery after chained reshards found %d keys, want %d", rstats.Keys, len(want))
	}
	checkHolds(t, st2, 5, want)
}

// TestReshardRefusals: a target that shrinks the store, keeps its count
// or exceeds MaxShards is refused and leaves the image as it was; so is,
// while a reshard is pending, any target but the pending one.
func TestReshardRefusals(t *testing.T) {
	st := newTestStore(t, Options{Shards: 4})
	sess := Open[string](st, Direct)
	for k := 0; k < 100; k++ {
		sess.Put(fmt.Sprintf("e-%d", k), uint64(k))
	}
	sess.Close()
	want := st.Snapshot()
	img, cfg, wm := imageOfStore(st)
	mem := pmem.NewFromImage(img, cfg)
	for _, target := range []int{4, 2, 0, MaxShards + 1} {
		if _, _, err := Reshard(mem, wm, st.Opts(), target); err == nil {
			t.Fatalf("Reshard of a 4-shard store to %d did not error", target)
		}
	}
	st2, _, err := Recover(mem, wm, st.Opts())
	if err != nil {
		t.Fatal(err)
	}
	checkHolds(t, st2, 4, want)

	// Cut a reshard to 6 right after its activation word.
	pending, _, _ := pendingReshard(t, st, 6, 0)
	if _, _, err := Reshard(pmem.NewFromImage(pending, cfg), wm, st.Opts(), 8); err == nil {
		t.Fatal("Reshard to 8 over a pending reshard to 6 did not error")
	}
	st3, _, err := Reshard(pmem.NewFromImage(pending, cfg), wm, st.Opts(), 6)
	if err != nil {
		t.Fatal(err)
	}
	checkHolds(t, st3, 6, want)
}

// TestReshardThenCombinedSession: a resharded store is an ordinary store —
// concurrent Combined sessions and a Direct one serve it, and what they wrote survives a recovery.
func TestReshardThenCombinedSession(t *testing.T) {
	st := newTestStore(t, Options{Shards: 4, ExpectedKeys: 1 << 11})
	sess := Open[string](st, Direct)
	for k := 0; k < 300; k++ {
		sess.Put(fmt.Sprintf("rc-%d", k), uint64(k))
	}
	sess.Close()
	img, cfg, wm := imageOfStore(st)
	st2, _, err := Reshard(pmem.NewFromImage(img, cfg), wm, st.Opts(), 6)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			comb := Open[string](st2, Combined)
			defer comb.Close()
			for k := w; k < 300; k += 3 {
				key := fmt.Sprintf("rc-%d", k)
				if v, ok := comb.Get(key); !ok || v != uint64(k) {
					t.Errorf("Combined Get(%s) = (%d,%v) after reshard, want (%d,true)", key, v, ok, k)
				}
				comb.Put(key, uint64(k)+1000)
				comb.Put(fmt.Sprintf("rc-new-%d", k), uint64(k))
			}
		}(w)
	}
	wg.Wait()
	direct := Open[string](st2, Direct)
	for k := 0; k < 300; k++ {
		if v, ok := direct.Get(fmt.Sprintf("rc-%d", k)); !ok || v != uint64(k)+1000 {
			t.Fatalf("Direct Get(rc-%d) = (%d,%v) after the Combined sessions, want (%d,true)", k, v, ok, k+1000)
		}
	}
	direct.Close()
	want := st2.Snapshot()
	if len(want) != 600 {
		t.Fatalf("resharded store holds %d keys after the sessions, want 600", len(want))
	}
	img, cfg, wm = imageOfStore(st2)
	st3, _, err := Recover(pmem.NewFromImage(img, cfg), wm, st2.Opts())
	if err != nil {
		t.Fatal(err)
	}
	checkHolds(t, st3, 6, want)
}

// traced runs rebuild (a Recover or a Reshard) on a fresh copy of img under
// a persist trace and returns the records it drained and the watermark it
// ended with.
func traced(t *testing.T, img []uint64, cfg pmem.Config, rebuild func(*pmem.Memory) (*Store, RecoveryStats, error)) ([]pmem.PersistRecord, uint64) {
	t.Helper()
	mem := pmem.NewFromImage(img, cfg)
	var clock int64
	tr := mem.StartTrace(func() int64 { clock++; return clock })
	st, _, err := rebuild(mem)
	mem.StopTrace()
	if err != nil {
		t.Fatal(err)
	}
	return tr.Records(), st.Heap().Watermark()
}

// pending reports whether the image's superblock records a reshard that
// has been activated and not yet committed.
func (r rawImage) pending() bool {
	serving, hdrs := r.tables()
	return len(hdrs) > serving
}

// pendingReshard traces a reshard of the quiescent store st to target and
// returns the image a power failure leaves part-way through its pending
// stretch — right after the activation word at frac 0, right before the
// commit word at frac 1 — the records still to drain at that point, and a
// watermark safe to recover the image with.
func pendingReshard(t *testing.T, st *Store, target int, frac float64) (img []uint64, rest []pmem.PersistRecord, wm uint64) {
	t.Helper()
	img, cfg, wm0 := imageOfStore(st)
	recs, wm := traced(t, img, cfg, func(mem *pmem.Memory) (*Store, RecoveryStats, error) {
		return Reshard(mem, wm0, st.Opts(), target)
	})
	img = append([]uint64(nil), img...)
	for k, rec := range recs {
		pmem.ApplyRecord(img, rec)
		if imageOf(img, st).pending() {
			// recs[k] is the activation word, the last record the commit.
			cut := k + 1 + int(frac*float64(len(recs)-k-2))
			for _, rec := range recs[k+1 : cut] {
				pmem.ApplyRecord(img, rec)
			}
			return img, recs[cut:], wm
		}
	}
	t.Fatal("the traced reshard never activated")
	return nil, nil, 0
}

// sweepBoundaries is the every-boundary check of one rebuild of img (a
// Recover or a Reshard from counts[0] to counts[1] shards): it traces the
// rebuild, and at EVERY persist-record prefix — each a power failure
// inside it — a Recover of the prefix image must serve exactly want with
// one of the counts, and a re-run of the rebuild itself must finish it to
// the last count. Both are tried with the watermark the crashed run was
// given (stale: it died before handing a newer one on) and with the one it
// ended with. It returns one line per failing boundary.
func sweepBoundaries(t *testing.T, st *Store, counts []int, rebuild func(*pmem.Memory, uint64) (*Store, RecoveryStats, error)) []string {
	t.Helper()
	want := st.Snapshot()
	img, cfg, wm0 := imageOfStore(st)
	recs, wm1 := traced(t, img, cfg, func(mem *pmem.Memory) (*Store, RecoveryStats, error) { return rebuild(mem, wm0) })
	t.Logf("%d persist records", len(recs))
	if len(recs) == 0 {
		t.Fatal("the rebuild persisted nothing: the sweep has no boundary to cut")
	}
	var fails []string
	img = append([]uint64(nil), img...)
	for k := 0; k <= len(recs); k++ {
		if k > 0 {
			pmem.ApplyRecord(img, recs[k-1])
		}
		for _, wm := range []uint64{wm0, wm1} {
			st2, _, err := Recover(pmem.NewFromImage(img, cfg), wm, st.Opts())
			if err == nil {
				err = holds(st2, counts, want)
			}
			if err != nil {
				fails = append(fails, fmt.Sprintf("boundary %d/%d, watermark %d: Recover: %v", k, len(recs), wm, err))
				continue
			}
			if k == len(recs) && len(counts) > 1 {
				continue // committed: re-running the reshard is the no-op it refuses
			}
			st3, _, err := rebuild(pmem.NewFromImage(img, cfg), wm)
			if err == nil {
				err = holds(st3, counts[len(counts)-1:], want)
			}
			if err != nil {
				fails = append(fails, fmt.Sprintf("boundary %d/%d, watermark %d: re-run: %v", k, len(recs), wm, err))
			}
		}
	}
	return fails
}

// sweepStore is the populated four-shard store the sweeps rebuild: 340
// keys, 40 of them deleted and unlinked, and in every other bucket a
// Delete cut between its marking CAS and its unlink — a marked node still
// linked, persisted. So a recovery keeps half the chains where they lie
// and rebuilds the other half.
func sweepStore(t *testing.T) *Store {
	t.Helper()
	st := newTestStore(t, Options{Shards: 4, Buckets: 16, HTBytes: 1 << 14, MemWords: 1 << 16})
	sess := Open[string](st, Direct)
	for k := 0; k < 340; k++ {
		sess.Put(fmt.Sprintf("eb-%d", k), uint64(k)+7)
	}
	for k := 300; k < 340; k++ {
		sess.Delete(fmt.Sprintf("eb-%d", k))
	}
	sess.Close()
	th := st.mem.RegisterThread()
	defer th.Release()
	for _, next := range memoryOf(st).markable(func(_, b int) bool { return b%2 == 0 }) {
		th.Store(next, st.mem.VolatileWord(next)|core.MarkBit)
		th.PWB(next)
		th.PFence()
	}
	return st
}

// TestReshardCrashAtEveryBoundary sweeps a non-doubling reshard (4→6:
// every old shard both gains and loses keys) and a doubling one (4→8).
// Its tooth is the single-phase redistribution this replaced — every table
// rebuilt straight to its final contents, each under its own fence — which
// loses the keys leaving a table between that table's fence and their
// target's, and must be caught.
func TestReshardCrashAtEveryBoundary(t *testing.T) {
	for _, target := range []int{6, 8} {
		t.Run(fmt.Sprintf("4to%d", target), func(t *testing.T) {
			st := sweepStore(t)
			fails := sweepBoundaries(t, st, []int{4, target}, func(mem *pmem.Memory, wm uint64) (*Store, RecoveryStats, error) {
				return Reshard(mem, wm, st.Opts(), target)
			})
			if len(fails) > 0 {
				t.Fatalf("%d boundaries failed, first: %s", len(fails), fails[0])
			}
		})
	}
	t.Run("single-phase-tooth", func(t *testing.T) {
		st := sweepStore(t)
		fails := sweepBoundaries(t, st, []int{4, 6}, func(mem *pmem.Memory, wm uint64) (*Store, RecoveryStats, error) {
			return singlePhaseReshard(mem, wm, st.Opts(), 6)
		})
		if len(fails) == 0 {
			t.Fatal("the single-phase redistribution passed every boundary: the sweep cannot see a key that is in no table")
		}
		t.Logf("tooth bit at %d boundaries, first: %s", len(fails), fails[0])
	})
}

// singlePhaseReshard is Reshard with the redistribution it had before the
// two phases: gather everything, then rebuild every table once, to the
// keys the target count assigns it.
func singlePhaseReshard(mem *pmem.Memory, wm uint64, opts Options, target int) (*Store, RecoveryStats, error) {
	st, g, err := attach(mem, wm, opts)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	if g.target == g.serving {
		st.activate(&g, target)
	}
	recovering := make([]*hashtable.Recovery, g.target)
	finals := make([][]list.Pair, g.target)
	for i := range recovering {
		recovering[i] = hashtable.BeginRecover(st.cfgShard(g, i))
		for _, p := range recovering[i].Pairs() {
			j := shardIdx(p.Key, g.target)
			finals[j] = append(finals[j], p)
		}
	}
	st.opts.Shards, st.tables = g.target, make([]*hashtable.Table, g.target)
	for i, r := range recovering {
		st.tables[i], _ = r.CompleteWith(finals[i])
	}
	th := mem.RegisterThread()
	st.sbWrite(th, fShards, uint64(g.target))
	th.Release()
	return st, RecoveryStats{}, nil
}

// TestRecoverCrashAtEveryBoundary sweeps a plain recovery. Its tooth is
// the one-fence table rebuild this replaced — each bucket's nodes and head
// queued together, so the line of heads 0–7 drains after bucket 0's nodes
// and before the nodes of buckets 1–7 — which must be caught.
func TestRecoverCrashAtEveryBoundary(t *testing.T) {
	st := sweepStore(t)
	fails := sweepBoundaries(t, st, []int{4}, func(mem *pmem.Memory, wm uint64) (*Store, RecoveryStats, error) {
		return Recover(mem, wm, st.Opts())
	})
	if len(fails) > 0 {
		t.Fatalf("%d boundaries failed, first: %s", len(fails), fails[0])
	}
	t.Run("one-fence-tooth", func(t *testing.T) {
		fails := sweepBoundaries(t, st, []int{4}, func(mem *pmem.Memory, wm uint64) (*Store, RecoveryStats, error) {
			return oneFenceRecover(mem, wm, st.Opts())
		})
		if len(fails) == 0 {
			t.Fatal("the one-fence rebuild passed every boundary: the sweep cannot see a head that outruns its nodes")
		}
		t.Logf("tooth bit at %d boundaries, first: %s", len(fails), fails[0])
	})
}

// oneFenceRecover is Recover with the table rebuild it had before the
// nodes-then-heads order: each bucket's head is stored and flushed right
// after its nodes, and one fence per table drains both.
func oneFenceRecover(mem *pmem.Memory, wm uint64, opts Options) (*Store, RecoveryStats, error) {
	st, g, err := attach(mem, wm, opts)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	recovering := make([]*hashtable.Recovery, g.target)
	for i := range recovering {
		recovering[i] = hashtable.BeginRecover(st.cfgShard(g, i))
	}
	st.opts.Shards, st.tables = g.target, make([]*hashtable.Table, g.target)
	for i, r := range recovering {
		cfg := st.cfgShard(g, i)
		tb := hashtable.Attach(cfg)
		byBucket := make([][]list.Pair, tb.Buckets())
		for _, p := range r.Pairs() {
			byBucket[tb.BucketOf(p.Key)] = append(byBucket[tb.BucketOf(p.Key)], p)
		}
		th, ar := mem.RegisterThread(), st.heap.NewArena()
		for b, pairs := range byBucket {
			first, _ := list.Rebuild(&cfg, th, ar, pairs)
			head := cfg.Field(tb.Base(), 1+b)
			th.Store(head, uint64(first))
			th.PWB(head)
		}
		th.PFence()
		ar.Release()
		th.Release()
		st.tables[i] = tb
	}
	return st, RecoveryStats{}, nil
}
