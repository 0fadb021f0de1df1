package core

import (
	"testing"

	"flit/internal/pmem"
)

func newDeferredMem(t *testing.T) (*pmem.Memory, *pmem.Thread) {
	t.Helper()
	cfg := pmem.DefaultConfig(1 << 12)
	cfg.VirtualClock = true
	m := pmem.New(cfg)
	return m, m.RegisterThread()
}

// TestDeferredKinds pins the wrapper's dispatch: which policies defer
// what.
func TestDeferredKinds(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  Policy
		kind deferKind
	}{
		{"flit-ht", NewFliT(NewHashTable(1 << 12)), deferFlit},
		{"flit-adjacent", NewFliT(Adjacent{}), deferFlit},
		{"plain", Plain{}, deferFlush},
		{"izraelevitz", Izraelevitz{}, deferFlush},
		{"link-and-persist", LinkAndPersist{}, deferComplete},
		{"no-persist", NoPersist{}, deferNone},
	} {
		d := NewDeferred(tc.pol)
		if d.kind != tc.kind {
			t.Errorf("%s: kind = %d, want %d", tc.name, d.kind, tc.kind)
		}
		if d.inner != tc.pol {
			t.Errorf("%s: lost the wrapped policy", tc.name)
		}
		if d.Name() != tc.pol.Name()+"+gc" {
			t.Errorf("%s: Name() = %q", tc.name, d.Name())
		}
	}
}

// TestDeferredStoreHoldsTagUntilFlush: a deferred FliT p-store leaves
// its location tagged (so concurrent readers carry the flush
// obligation), and Flush fences first, then untags — after which the
// live-tag count is zero.
func TestDeferredStoreHoldsTagUntilFlush(t *testing.T) {
	_, th := newDeferredMem(t)
	f := NewFliT(NewHashTable(1 << 12))
	d := NewDeferred(f)
	const a = pmem.Addr(64)

	d.Store(th, a, 42, P)
	if !f.C.Tagged(th, a) {
		t.Fatal("deferred p-store did not leave the location tagged")
	}
	if n, _ := LiveTagCount(f); n != 1 {
		t.Fatalf("live tags before Flush = %d, want 1", n)
	}
	if th.M.PersistedWord(a) != 0 {
		t.Fatal("deferred p-store persisted before Flush")
	}

	if n := d.Flush(th); n != 1 {
		t.Fatalf("Flush drained %d lines, want 1", n)
	}
	if f.C.Tagged(th, a) {
		t.Fatal("location still tagged after Flush")
	}
	if n, _ := LiveTagCount(f); n != 0 {
		t.Fatalf("live tags after Flush = %d, want 0", n)
	}
	if th.M.PersistedWord(a) != 42 {
		t.Fatalf("persisted word = %d, want 42", th.M.PersistedWord(a))
	}
}

// TestDeferredDedupsSameLinePWBs: consecutive deferred stores (and
// tagged loads) against one cache line issue a single PWB — the batch
// window's coalescing dedup, which per-op trailing fences deny the
// unbatched path.
func TestDeferredDedupsSameLinePWBs(t *testing.T) {
	_, th := newDeferredMem(t)
	d := NewDeferred(NewFliT(NewHashTable(1 << 12)))
	const a = pmem.Addr(64) // words 64..71 share a line

	for i := 0; i < 8; i++ {
		d.Store(th, a+pmem.Addr(i%4), uint64(i), P)
	}
	// The stores left the line tagged; p-loads must not re-flush it
	// while it is pending on this batch's queue.
	for i := 0; i < 4; i++ {
		d.Load(th, a, P)
	}
	if th.Stats.PWBs != 1 {
		t.Fatalf("issued %d PWBs for 8 same-line stores + 4 tagged loads, want 1", th.Stats.PWBs)
	}
	if th.Stats.PFences != 0 {
		t.Fatalf("issued %d fences before Flush, want 0", th.Stats.PFences)
	}
	if n := d.Flush(th); n != 1 {
		t.Fatalf("Flush drained %d lines, want 1", n)
	}
	if th.Stats.PFences != 1 {
		t.Fatalf("Flush issued %d fences, want 1", th.Stats.PFences)
	}
}

// TestDeferredCompleteDefersFence: Complete is fence-free for every
// deferring kind; the batch fence is Flush's.
func TestDeferredCompleteDefersFence(t *testing.T) {
	for _, pol := range []Policy{
		NewFliT(Adjacent{}), Plain{}, Izraelevitz{}, LinkAndPersist{},
	} {
		_, th := newDeferredMem(t)
		d := NewDeferred(pol)
		d.Complete(th)
		if th.Stats.PFences != 0 {
			t.Errorf("%s: Complete fenced under the batch skeleton", pol.Name())
		}
	}
}

// TestDeferredFlushPersistsLoadObligations: a deferred-mode p-load of a
// line another thread left tagged flushes it, and this batch's Flush
// persists it — the cross-session half of "ack ⇒ persisted".
func TestDeferredFlushPersistsLoadObligations(t *testing.T) {
	m, writer := newDeferredMem(t)
	f := NewFliT(NewHashTable(1 << 12))
	wd := NewDeferred(f)
	const a = pmem.Addr(128)
	wd.Store(writer, a, 7, P) // in flight: tagged, unfenced

	reader := m.RegisterThread()
	rd := NewDeferred(f)
	if v := rd.Load(reader, a, P); v != 7 {
		t.Fatalf("Load = %d, want 7", v)
	}
	if reader.Stats.PWBs != 1 {
		t.Fatalf("reader issued %d PWBs for a tagged line, want 1", reader.Stats.PWBs)
	}
	// The reader's batch wrote nothing, yet it owes a fence: the flush its
	// tagged load picked up. A commit that skipped read-only batches would
	// ack 7 with the writer's value still volatile.
	rd.Flush(reader)
	if reader.Stats.PFences != 1 || reader.Stats.ElidedFences != 0 {
		t.Fatalf("read-only batch with a load-side flush: PFences=%d ElidedFences=%d, want 1/0",
			reader.Stats.PFences, reader.Stats.ElidedFences)
	}
	if m.PersistedWord(a) != 7 {
		t.Fatal("reader's Flush did not persist the tagged value it observed")
	}
}

// TestDeferredFlushFencesOnlyPending pins the conditional group-commit
// fence per policy: Flush fences iff the batch left write-backs on the
// thread's queue and otherwise counts an elided fence. A batch that only
// p-loaded a clean word owes nothing under FliT and link-and-persist (no
// tag, no dirty bit, no flush) but fences under Plain and Izraelevitz,
// whose p-loads always flush. A deferred store is pending under every
// policy but link-and-persist, whose stores are CASes persisted in place.
// Either way the batch's value is durable once Flush returns.
func TestDeferredFlushFencesOnlyPending(t *testing.T) {
	type fences struct{ issued, elided uint64 }
	for _, tc := range []struct {
		pol         Policy
		load, store fences
	}{
		{NewFliT(NewHashTable(1 << 12)), fences{0, 1}, fences{1, 0}},
		{NewFliT(Adjacent{}), fences{0, 1}, fences{1, 0}},
		{Plain{}, fences{1, 0}, fences{1, 0}},
		{Izraelevitz{}, fences{1, 0}, fences{1, 0}},
		{LinkAndPersist{}, fences{0, 1}, fences{0, 1}},
	} {
		m, th := newDeferredMem(t)
		d := NewDeferred(tc.pol)
		const a = pmem.Addr(64)
		flush := func(step string, want fences, val uint64) {
			t.Helper()
			before := th.Stats
			d.Flush(th)
			got := fences{th.Stats.PFences - before.PFences, th.Stats.ElidedFences - before.ElidedFences}
			if got != want {
				t.Errorf("%s, %s: Flush (issued, elided) = %v, want %v", tc.pol.Name(), step, got, want)
			}
			// Link-and-persist persists its value with the dirty bit up.
			if p := m.PersistedWord(a) &^ DirtyBit; p != val || th.Pending() != 0 {
				t.Errorf("%s, %s: persisted %d with %d lines pending after Flush, want %d and none",
					tc.pol.Name(), step, p, th.Pending(), val)
			}
		}
		d.Load(th, a, P)
		flush("clean p-load", tc.load, 0)
		d.Store(th, a, 5, P)
		flush("p-store", tc.store, 5)
		flush("empty batch", fences{0, 1}, 5)
	}
}

// TestDeferredFlushReleasesDrainedTags: a deferred store whose line an
// earlier fence of the batch already drained (a private p-store's, which
// does not release tags) leaves the queue empty. Flush then elides its
// fence but still releases the held tag: the value is durable, and a tag
// left behind would make every reader re-flush the line forever.
func TestDeferredFlushReleasesDrainedTags(t *testing.T) {
	m, th := newDeferredMem(t)
	f := NewFliT(NewHashTable(1 << 12))
	d := NewDeferred(f)
	const a, b = pmem.Addr(64), pmem.Addr(256) // different lines
	d.Store(th, a, 42, P)
	d.StorePrivate(th, b, 1, P)
	if th.Pending() != 0 || len(d.tags) != 1 {
		t.Fatalf("after the private p-store: %d lines pending, %d tags held, want 0 / 1", th.Pending(), len(d.tags))
	}
	fences := th.Stats.PFences
	if n := d.Flush(th); n != 0 || th.Stats.PFences != fences || th.Stats.ElidedFences != 1 {
		t.Fatalf("Flush drained %d lines, issued %d fences, elided %d, want 0 / 0 / 1",
			n, th.Stats.PFences-fences, th.Stats.ElidedFences)
	}
	if n, _ := LiveTagCount(f); n != 0 || len(d.tags) != 0 {
		t.Fatalf("tags not released by the elided Flush: %d live, %d held", n, len(d.tags))
	}
	if m.PersistedWord(a) != 42 {
		t.Fatalf("persisted word = %d, want 42", m.PersistedWord(a))
	}
}

// TestDeferredPassThrough: no-persist defers nothing and Flush does
// nothing — not even count an elided fence.
func TestDeferredPassThrough(t *testing.T) {
	_, th := newDeferredMem(t)
	d := NewDeferred(NoPersist{})
	d.Store(th, 64, 1, P)
	d.Complete(th)
	if n := d.Flush(th); n != 0 {
		t.Fatalf("no-persist Flush drained %d lines, want 0", n)
	}
	if th.Stats.PWBs != 0 || th.Stats.PFences != 0 || th.Stats.ElidedFences != 0 {
		t.Fatal("no-persist pass-through issued or counted persistence instructions")
	}
}

// TestDeferredPlainStoreDeferred: under Plain the deferred store
// flushes without fencing, and Flush persists it.
func TestDeferredPlainStoreDeferred(t *testing.T) {
	m, th := newDeferredMem(t)
	d := NewDeferred(Plain{})
	const a = pmem.Addr(64)
	d.Store(th, a, 9, P)
	if th.Stats.PWBs != 1 || th.Stats.PFences != 0 {
		t.Fatalf("plain deferred store: PWBs=%d PFences=%d, want 1/0", th.Stats.PWBs, th.Stats.PFences)
	}
	if m.PersistedWord(a) != 0 {
		t.Fatal("plain deferred store persisted before Flush")
	}
	d.Flush(th)
	if m.PersistedWord(a) != 9 {
		t.Fatal("Flush did not persist the deferred plain store")
	}
}

// TestDeferredCASDelegates: publishing instructions keep the wrapped
// policy's full fence discipline — a successful p-CAS is persistent
// before it returns, batch or no batch.
func TestDeferredCASDelegates(t *testing.T) {
	m, th := newDeferredMem(t)
	d := NewDeferred(NewFliT(NewHashTable(1 << 12)))
	const a = pmem.Addr(64)
	if !d.CAS(th, a, 0, 5, P) {
		t.Fatal("CAS failed")
	}
	if m.PersistedWord(a) != 5 {
		t.Fatal("p-CAS under the batch skeleton was not immediately persistent")
	}
}

// TestDeferredFailedCASReleasesTags pins what releaseTagsIfFenced infers
// from the fence count now that the delegated CAS's dependency fence is
// conditional (fenceDeps). A batch holding a deferred p-store has that
// store's line pending, so even a *failed* p-CAS — which fences nothing
// of its own — issues the leading fence: one fence, one line drained,
// the store durable, its tag released. An idle batch's failed p-CAS
// issues no fence at all and there is nothing to release.
func TestDeferredFailedCASReleasesTags(t *testing.T) {
	const a, b = pmem.Addr(64), pmem.Addr(256) // different lines

	m, th := newDeferredMem(t)
	f := NewFliT(NewHashTable(1 << 12))
	d := NewDeferred(f)
	d.Store(th, a, 42, P)
	if d.CAS(th, b, 9, 1, P) {
		t.Fatal("CAS with a stale value succeeded")
	}
	if got := th.Stats; got.PFences != 1 || got.Drained != 1 || got.ElidedFences != 0 {
		t.Fatalf("deferred store + failed p-CAS: PFences=%d Drained=%d ElidedFences=%d, want 1/1/0",
			got.PFences, got.Drained, got.ElidedFences)
	}
	if m.PersistedWord(a) != 42 {
		t.Fatal("the CAS's dependency fence did not persist the deferred store")
	}
	if n, _ := LiveTagCount(f); n != 0 || len(d.tags) != 0 {
		t.Fatalf("tags not released after the fence: %d live, %d held", n, len(d.tags))
	}

	_, th = newDeferredMem(t)
	f = NewFliT(NewHashTable(1 << 12))
	d = NewDeferred(f)
	if d.CAS(th, b, 9, 1, P) {
		t.Fatal("CAS with a stale value succeeded")
	}
	if got := th.Stats; got.PFences != 0 || got.Drained != 0 || got.ElidedFences != 1 {
		t.Fatalf("idle batch, failed p-CAS: PFences=%d Drained=%d ElidedFences=%d, want 0/0/1",
			got.PFences, got.Drained, got.ElidedFences)
	}
	if n, _ := LiveTagCount(f); n != 0 || len(d.tags) != 0 {
		t.Fatalf("idle batch holds tags: %d live, %d held", n, len(d.tags))
	}
}
