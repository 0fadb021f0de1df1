package store_test

import (
	"sync"
	"testing"
	"time"

	"flit/internal/core"
	"flit/internal/pmem"
	"flit/internal/store"
)

func newBatchStore(t *testing.T, policy string) *store.Store {
	t.Helper()
	st, err := store.New(store.Options{
		Shards: 4, ExpectedKeys: 1 << 10, Policy: policy,
		HTBytes: 1 << 14, VirtualClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBatchSessionSemantics: the batched ops return the same results as
// plain sessions, and plain sessions observe batched effects (shared
// volatile state, shared flit-counter tables).
func TestBatchSessionSemantics(t *testing.T) {
	st := newBatchStore(t, core.PolicyHT)
	bs := store.Open[string](st, store.Batched)
	plain := store.Open[string](st, store.Direct)

	if !bs.Put("a", 1) {
		t.Fatal("fresh Put reported existing key")
	}
	if bs.Put("a", 2) {
		t.Fatal("overwrite reported new key")
	}
	if v, ok := bs.Get("a"); !ok || v != 2 {
		t.Fatalf("Get(a) = %d,%v want 2,true", v, ok)
	}
	if !bs.Contains("a") || bs.Contains("b") {
		t.Fatal("Contains disagrees with Put history")
	}
	if got := bs.Pending(); got != 5 {
		t.Fatalf("Pending = %d, want 5", got)
	}
	bs.Commit()
	if bs.Pending() != 0 {
		t.Fatal("Pending not reset by Commit")
	}

	// Cross-session visibility (volatile) both ways.
	if v, ok := plain.Get("a"); !ok || v != 2 {
		t.Fatalf("plain session Get(a) = %d,%v want 2,true", v, ok)
	}
	plain.Put("c", 3)
	if v, ok := bs.Get("c"); !ok || v != 3 {
		t.Fatalf("batch session Get(c) = %d,%v want 3,true", v, ok)
	}
	if !bs.Delete("a") || bs.Delete("a") {
		t.Fatal("Delete semantics broken")
	}
	bs.Commit()
}

// TestBatchCommitIsTheDurabilityBoundary: in-place value overwrites are
// the deferred p-stores of the batch path — a committed overwrite
// survives a DropUnfenced crash, an uncommitted one rolls back to the
// old value. (Fresh inserts persist inside their link-CAS fences either
// way; only the ack, not the durability, waits for Commit there.)
func TestBatchCommitIsTheDurabilityBoundary(t *testing.T) {
	st := newBatchStore(t, core.PolicyHT)
	bs := store.Open[string](st, store.Batched)

	bs.Put("committed", 1)
	bs.Put("rollback", 1)
	bs.Commit()

	bs.Put("committed", 2) // overwrite: deferred value p-store
	if drained := bs.Commit(); drained == 0 {
		t.Fatal("Commit drained nothing for an overwrite batch")
	}
	bs.Put("rollback", 2) // overwrite left uncommitted: must not persist

	img := st.Mem().CrashImage(pmem.DropUnfenced, 1)
	st2, _, err := store.Recover(pmem.NewFromImage(img, st.Mem().Config()), st.Heap().Watermark(), st.Opts())
	if err != nil {
		t.Fatal(err)
	}
	sess := store.Open[string](st2, store.Direct)
	if v, ok := sess.Get("committed"); !ok || v != 2 {
		t.Fatalf("committed overwrite lost: Get = %d,%v want 2,true", v, ok)
	}
	if v, ok := sess.Get("rollback"); !ok || v != 1 {
		// Not a durability violation (the op was never acknowledged),
		// but under DropUnfenced an unfenced value store cannot survive —
		// if it does, the deferral isn't deferring.
		t.Fatalf("uncommitted overwrite observed after DropUnfenced crash: Get = %d,%v want 1,true", v, ok)
	}
}

// TestReadOnlyCommitFencesWhatItRead: the group-commit fence is issued
// iff the batch left a write-back pending. A Get that saw no flit-tag
// commits without one; a Get that read another
// session's in-flight overwrite flushed that line and must fence it, or
// the value it acknowledged would not survive the crash below (the
// writer never commits).
func TestReadOnlyCommitFencesWhatItRead(t *testing.T) {
	st := newBatchStore(t, core.PolicyHT)
	w := store.Open[string](st, store.Batched)
	w.Put("clean", 1)
	w.Put("hot", 1)
	w.Commit()

	r := store.Open[string](st, store.Batched)
	commit := func(what string, wantFences, wantElided uint64) {
		t.Helper()
		before := r.Thread().Stats
		r.Commit()
		after := r.Thread().Stats
		if f, e := after.PFences-before.PFences, after.ElidedFences-before.ElidedFences; f != wantFences || e != wantElided {
			t.Fatalf("%s: commit issued %d fences, elided %d; want %d, %d", what, f, e, wantFences, wantElided)
		}
	}
	if v, ok := r.Get("clean"); !ok || v != 1 {
		t.Fatalf("Get(clean) = %d,%v", v, ok)
	}
	commit("Get of a committed key", 0, 1)

	w.Put("hot", 2) // in-place overwrite: tagged and pending on w's queue only
	if v, ok := r.Get("hot"); !ok || v != 2 {
		t.Fatalf("Get(hot) = %d,%v, want the in-flight 2", v, ok)
	}
	commit("Get of an in-flight overwrite", 1, 0)

	img := st.Mem().CrashImage(pmem.DropUnfenced, 1)
	st2, _, err := store.Recover(pmem.NewFromImage(img, st.Mem().Config()), st.Heap().Watermark(), st.Opts())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := store.Open[string](st2, store.Direct).Get("hot"); !ok || v != 2 {
		t.Fatalf("acknowledged read of hot=2 lost at the crash: recovered %d,%v", v, ok)
	}
}

// TestBatchTagsQuiesce: after Commit, no flit-counter stays tagged (the
// dlcheck quiescence oracle at service granularity).
func TestBatchTagsQuiesce(t *testing.T) {
	st := newBatchStore(t, core.PolicyHT)
	bs := store.Open[[]byte](st, store.Batched)
	for i := 0; i < 64; i++ {
		key := []byte{'k', byte(i)}
		bs.Put(key, uint64(i))
		if i%3 == 0 {
			bs.Delete(key)
		}
	}
	bs.Commit()
	if n, ok := core.LiveTagCount(st.Policy()); !ok || n != 0 {
		t.Fatalf("live tags after Commit = %d (auditable=%v), want 0", n, ok)
	}
}

// TestBatchAmortizesFences: the same op stream costs strictly fewer
// fences — and no more PWBs — through a BatchSession committing every 16
// ops than through per-op-persisting plain sessions. This is the
// group-commit claim at its smallest scale.
func TestBatchAmortizesFences(t *testing.T) {
	ops := func(put func(k []byte, v uint64), get func(k []byte)) {
		var key [2]byte
		for i := 0; i < 256; i++ {
			key[0], key[1] = byte(i), byte(i>>4)
			if i%2 == 0 {
				put(key[:], uint64(i))
			} else {
				get(key[:])
			}
		}
	}

	base := newBatchStore(t, core.PolicyHT)
	sess := store.Open[[]byte](base, store.Direct)
	base.Mem().ResetStats()
	ops(func(k []byte, v uint64) { sess.Put(k, v) }, func(k []byte) { sess.Get(k) })
	unbatched := base.Mem().TotalStats()

	batched := newBatchStore(t, core.PolicyHT)
	bs := store.Open[[]byte](batched, store.Batched)
	batched.Mem().ResetStats()
	n := 0
	commitEvery := func() {
		if n++; n%16 == 0 {
			bs.Commit()
		}
	}
	ops(
		func(k []byte, v uint64) { bs.Put(k, v); commitEvery() },
		func(k []byte) { bs.Get(k); commitEvery() },
	)
	bs.Commit()
	grouped := batched.Mem().TotalStats()

	if grouped.PFences >= unbatched.PFences {
		t.Fatalf("batched fences %d not below unbatched %d", grouped.PFences, unbatched.PFences)
	}
	if grouped.PWBs > unbatched.PWBs {
		t.Fatalf("batched PWBs %d exceed unbatched %d", grouped.PWBs, unbatched.PWBs)
	}
}

// TestSnapshotConcurrentMemorySafety pins the documented half of
// Store.Snapshot's contract that CAN be asserted mechanically: against
// live sessions it is memory-safe (all reads go through the atomic
// volatile layer — no race-detector report, no fault), even though its
// contents are only linearizable after quiescence. Run under -race in
// the nightly suite, this test is the assertion; the quiescent half is
// checked by the exact-contents comparison after the join.
func TestSnapshotConcurrentMemorySafety(t *testing.T) {
	st := newBatchStore(t, core.PolicyHT)
	const workers, opsEach = 3, 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := store.Open[[]byte](st, store.Direct)
			var key [3]byte
			for i := 0; i < opsEach; i++ {
				key[0], key[1], key[2] = byte(w), byte(i), byte(i>>8)
				switch i % 3 {
				case 0:
					sess.Put(key[:], uint64(i))
				case 1:
					sess.Get(key[:])
				default:
					sess.Delete(key[:])
				}
			}
		}(w)
	}
	// Concurrent snapshots: must not race or panic; contents are
	// best-effort while sessions run (documented).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = st.Snapshot()
			}
		}
	}()
	// Quiesce the mutators, then stop the snapshotter.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	go func() {
		// The mutators finish fast; give the snapshotter overlap time.
		time.Sleep(20 * time.Millisecond)
		close(stop)
	}()
	<-done

	// Quiescent now: Snapshot must be exact. Workers each leave the
	// keys of their final i%3==0 puts that were not later deleted —
	// recompute independently and compare.
	want := map[uint64]uint64{}
	for w := 0; w < workers; w++ {
		var key [3]byte
		alive := map[uint64]uint64{}
		for i := 0; i < opsEach; i++ {
			key[0], key[1], key[2] = byte(w), byte(i), byte(i>>8)
			h := store.HashKeyBytes(key[:])
			switch i % 3 {
			case 0:
				alive[h] = uint64(i)
			case 2:
				delete(alive, h)
			}
		}
		for h, v := range alive {
			want[h] = v
		}
	}
	got := st.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("quiescent snapshot has %d keys, want %d", len(got), len(want))
	}
	for h, v := range want {
		if got[h] != v {
			t.Fatalf("quiescent snapshot[%#x] = %d, want %d", h, got[h], v)
		}
	}
}
