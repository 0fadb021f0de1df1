package store

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"flit/internal/pmem"
)

// churnRound deletes and re-inserts every key in [0,n) through sess.
func churnRound(sess *Sess[string], n int) {
	for k := 0; k < n; k++ {
		key := fmt.Sprintf("churn-%d", k)
		sess.Delete(key)
		sess.Put(key, uint64(k))
	}
}

// TestChurnWatermarkBounded is the unbounded-growth regression test from
// the live-traffic leak: a steady delete/insert churn over a fixed live
// set, interleaved with session open/close cycles, must hold the pheap
// watermark steady — retired nodes are recycled through the reclamation
// domain instead of stranding, so the high-water mark stays within 2× of
// its post-warmup value no matter how many rounds run.
func TestChurnWatermarkBounded(t *testing.T) {
	st := newTestStore(t, Options{})
	const live = 256

	warm := Open[string](st, Direct)
	for k := 0; k < live; k++ {
		warm.Put(fmt.Sprintf("churn-%d", k), uint64(k))
	}
	churnRound(warm, live) // one full round so steady-state structures exist
	warm.Close()
	w0 := st.Heap().Watermark()
	r0 := st.Resources()

	for round := 0; round < 50; round++ {
		sess := Open[string](st, Direct)
		churnRound(sess, live)
		sess.Close()
	}

	if w := st.Heap().Watermark(); w > 2*w0 {
		t.Fatalf("pheap watermark grew unbounded under churn: %d words after 50 rounds, warmup %d (bound 2×)", w, w0)
	}
	if r := st.Resources(); r != r0 {
		t.Fatalf("resource account moved under session churn: %+v, baseline %+v", r, r0)
	}
	if got := len(st.Snapshot()); got != live {
		t.Fatalf("churn lost keys: %d live, want %d", got, live)
	}
}

// TestChurnLimboIndependentOfShards: a deleted node waits out one grace
// period of the store, not one of its shard. The churn is the emb_write
// benchmark's shape — Put a live key, Put a fresh one, Put a live key,
// Delete the oldest — through one Direct session, over 4 096 live keys.
// A reclamation handle advances its domain's epoch every 64 of its own
// retirements and a block recycles three epochs after it retired, so with
// one domain per shard each shard keeps its own ~192-node backlog and the
// heap grows with the shard count (by 4 096 and 40 960 words at 8 and 64
// shards). With one domain per store the backlog is one store's, and the
// heap does not grow at all past the load.
func TestChurnLimboIndependentOfShards(t *testing.T) {
	const live, ops = 4096, 200_000
	for _, shards := range []int{1, 8, 64} {
		st := newTestStore(t, Options{Shards: shards, ExpectedKeys: live})
		sess := Open[[]byte](st, Direct)
		var key []byte
		put := func(i uint64, v uint64) { sess.Put(strconv.AppendUint(key[:0], i, 10), v) }
		for i := uint64(0); i < live; i++ {
			put(i, i)
		}
		w0 := st.Heap().Watermark()
		rng := rand.New(rand.NewSource(1))
		ins, del := uint64(live), uint64(0)
		for op := 0; op < ops; op++ {
			switch op % 4 {
			case 0, 2:
				put(del+uint64(rng.Intn(live)), uint64(op))
			case 1:
				put(ins, uint64(op))
				ins++
			case 3:
				sess.Delete(strconv.AppendUint(key[:0], del, 10))
				del++
			}
		}
		sess.Close()
		if g := st.Heap().Watermark() - w0; g != 0 {
			t.Errorf("%d shards: the heap watermark grew by %d words under churn, want 0 at every shard count", shards, g)
		}
		if n := len(st.Snapshot()); n != live {
			t.Fatalf("%d shards: %d live keys after churn, want %d", shards, n, live)
		}
	}
}

// TestOneReclamationHandlePerSession: a session registers one reclamation
// handle in the store's domain whatever the shard count — Direct and
// Batched sessions their own, Combined sessions none beyond the
// combiner's — and closing it deregisters it, so open/close churn leaves
// the domain as it found it.
func TestOneReclamationHandlePerSession(t *testing.T) {
	for _, shards := range []int{8, 64} {
		st := newTestStore(t, Options{Shards: shards})
		Open[string](st, Combined).Close() // build the combiner and its session
		base := st.Resources()
		if base != (Resources{Threads: 1, Arenas: 1, Handles: 1}) {
			t.Fatalf("%d shards: the combiner holds %+v, want one thread, arena and handle", shards, base)
		}
		for _, mode := range SessionModes {
			sess := Open[string](st, mode)
			sess.Put("k", 1)
			sess.Delete("k")
			want := base
			if mode == Combined {
				want.CombinedSessions++
			} else {
				want.Threads, want.Arenas, want.Handles = want.Threads+1, want.Arenas+1, want.Handles+1
			}
			if r := st.Resources(); r != want {
				t.Errorf("%d shards, %v: %+v with the session open, want %+v", shards, mode, r, want)
			}
			sess.Close()
		}
		for i := 0; i < 32; i++ {
			Open[string](st, SessionModes[i%len(SessionModes)]).Close()
		}
		if r := st.Resources(); r != base {
			t.Errorf("%d shards: %+v after open/close churn, want %+v", shards, r, base)
		}
	}
}

// TestResourceAccount: a fresh store holds nothing, a closed Direct
// session gives back all it took, and a closed Combined one leaves only
// the combiner's own session: one thread, one arena, one handle.
func TestResourceAccount(t *testing.T) {
	st := newTestStore(t, Options{})
	if r := st.Resources(); r != (Resources{}) {
		t.Fatalf("fresh store holds %+v, want nothing", r)
	}
	d := Open[string](st, Direct)
	d.Put("k", 1)
	d.Close()
	if r := st.Resources(); r != (Resources{}) {
		t.Fatalf("after a Direct session's Close the store holds %+v, want nothing", r)
	}
	c := Open[string](st, Combined)
	c.Put("k", 2)
	c.Close()
	if r, want := st.Resources(), (Resources{Threads: 1, Arenas: 1, Handles: 1}); r != want {
		t.Fatalf("after a Combined session's Close the store holds %+v, want %+v", r, want)
	}
}

// TestBatchedSessionCloseReleases: Batched sessions flush and release
// their thread and handles on Close, same as Direct.
func TestBatchedSessionCloseReleases(t *testing.T) {
	st := newTestStore(t, Options{})
	for i := 0; i < 32; i++ {
		sess := Open[string](st, Batched)
		sess.Put("a", uint64(i))
		sess.Put("b", uint64(i))
		sess.Close() // must flush the pending batch durably
	}
	if r := st.Resources(); r != (Resources{}) {
		t.Fatalf("Batched session churn leaked: %+v held, want nothing", r)
	}
	check := Open[string](st, Direct)
	defer check.Close()
	if v, ok := check.Get("a"); !ok || v != 31 {
		t.Fatalf("close-time flush lost the final batch: got (%d,%v), want (31,true)", v, ok)
	}
}

// TestSessionCloseIdempotent: double Close must be a no-op, not a
// double-release of the thread slot or handles.
func TestSessionCloseIdempotent(t *testing.T) {
	st := newTestStore(t, Options{})
	sess := Open[string](st, Direct)
	sess.Put("x", 1)
	sess.Close()
	sess.Close()
	other := Open[string](st, Direct)
	defer other.Close()
	if !other.Contains("x") {
		t.Fatal("store corrupted by double Close")
	}
}

// TestCrashedSessionDoesNotWedgeReclamation: a session that dies by
// crash injection mid-operation — never calling Close — must not pin the
// reclamation epoch. If it did, every block retired afterwards would
// strand and the watermark would climb with churn; the orphan rule
// (crashed owners are adopted during epoch advancement) keeps it flat.
func TestCrashedSessionDoesNotWedgeReclamation(t *testing.T) {
	st := newTestStore(t, Options{})
	const live = 256

	warm := Open[string](st, Direct)
	for k := 0; k < live; k++ {
		warm.Put(fmt.Sprintf("churn-%d", k), uint64(k))
	}
	churnRound(warm, live)
	warm.Close()
	w0 := st.Heap().Watermark()

	// Kill a session mid-operation: its epoch announcement stays pinned
	// and its goroutine unwinds without Exit or Close.
	victim := Open[string](st, Direct)
	victim.Put("victim-warm", 1) // ensure its handle has entered an epoch
	victim.Thread().SetCrashAfter(3)
	if !pmem.RunToCrash(func() { victim.Put("victim-crash", 2) }) {
		t.Fatal("armed crash did not fire during the victim's operation")
	}

	for round := 0; round < 50; round++ {
		sess := Open[string](st, Direct)
		churnRound(sess, live)
		sess.Close()
	}

	if w := st.Heap().Watermark(); w > 2*w0 {
		t.Fatalf("crashed session wedged reclamation: watermark %d words after churn, warmup %d (bound 2×)", w, w0)
	}
	victim.Close()
}

// TestCrashedSessionCloseKeepsImage: closing a session whose thread a
// crash killed persists nothing. A Batched in-place Put 1 → 2 is left
// uncommitted and the next op crashes: the DropUnfenced image recovers 1
// before Close and still 1 after it. The dead window's tag stays held, so
// another session's Get of the key flushes the value, and its commit
// persists 2.
func TestCrashedSessionCloseKeepsImage(t *testing.T) {
	st := newTestStore(t, Options{})
	recovered := func() uint64 {
		t.Helper()
		img := st.Mem().CrashImage(pmem.DropUnfenced, 1)
		rst, _, err := Recover(pmem.NewFromImage(img, st.Mem().Config()), st.Heap().Watermark(), st.Opts())
		if err != nil {
			t.Fatal(err)
		}
		checkAccount(t, rst)
		rs := Open[string](rst, Direct)
		defer rs.Close()
		v, _ := rs.Get("k")
		return v
	}
	sess := Open[string](st, Batched)
	sess.Put("k", 1)
	sess.Commit()
	sess.Put("k", 2)
	sess.Thread().SetCrashAfter(0)
	if !pmem.RunToCrash(func() { sess.Get("other") }) {
		t.Fatal("armed crash did not fire during the next op")
	}
	if v := recovered(); v != 1 {
		t.Fatalf("image after the crash recovers %d, want 1", v)
	}
	sess.Close()
	if v := recovered(); v != 1 {
		t.Fatalf("closing the crashed session persisted its window: image recovers %d, want 1", v)
	}
	live := Open[string](st, Direct)
	defer live.Close()
	if v, ok := live.Get("k"); !ok || v != 2 {
		t.Fatalf("live Get = (%d,%v), want (2,true)", v, ok)
	}
	if v := recovered(); v != 2 {
		t.Fatalf("a Get over the held tag did not persist what it read: image recovers %d, want 2", v)
	}
}
