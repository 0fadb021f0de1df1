package core

import (
	"testing"

	"flit/internal/pheap"
	"flit/internal/pmem"
	"flit/internal/reclaim"
)

func newDeferredMem(t *testing.T) (*pmem.Memory, *pmem.Thread) {
	t.Helper()
	cfg := pmem.DefaultConfig(1 << 12)
	cfg.VirtualClock = true
	m := pmem.New(cfg)
	return m, m.RegisterThread()
}

// TestDeferredKinds pins the wrapper's dispatch: which policies defer
// what, and that a window over a raw policy shares its flit-counters and
// is a window while the raw policy is not.
func TestDeferredKinds(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  Policy
		kind family
	}{
		{"flit-ht", NewFliT(NewHashTable(1 << 12)), flitFamily},
		{"flit-adjacent", NewFliT(Adjacent{}), flitFamily},
		{"plain", NewPlain(), flushFamily},
		{"izraelevitz", NewIzraelevitz(), flushFamily},
		{"link-and-persist", LinkAndPersist{}, dirtyFamily},
		{"no-persist", NoPersist{}, noneFamily},
	} {
		d := NewDeferred(tc.pol)
		if d.kind != tc.kind {
			t.Errorf("%s: kind = %d, want %d", tc.name, d.kind, tc.kind)
		}
		if Counters(d) != Counters(tc.pol) {
			t.Errorf("%s: the window does not share the policy's counters", tc.name)
		}
		if Window(d) != d || Window(tc.pol) != nil {
			t.Errorf("%s: Window(window) = %v, Window(policy) = %v", tc.name, Window(d), Window(tc.pol))
		}
		if d.Name() != tc.pol.Name()+"+gc" {
			t.Errorf("%s: Name() = %q", tc.name, d.Name())
		}
		if d.SupportsRMW() != tc.pol.SupportsRMW() {
			t.Errorf("%s: SupportsRMW() = %v", tc.name, d.SupportsRMW())
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
	if !f.c.Tagged(th, a) {
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
	if f.c.Tagged(th, a) {
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
		NewFliT(Adjacent{}), NewPlain(), NewIzraelevitz(), LinkAndPersist{},
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
// whose p-loads always flush. A deferred store or p-CAS is pending under
// every policy but link-and-persist, whose stores are CASes persisted in
// place. Either way the batch's value is durable once Flush returns.
func TestDeferredFlushFencesOnlyPending(t *testing.T) {
	type fences struct{ issued, elided uint64 }
	for _, tc := range []struct {
		pol              Policy
		load, store, cas fences
	}{
		{NewFliT(NewHashTable(1 << 12)), fences{0, 1}, fences{1, 0}, fences{1, 0}},
		{NewFliT(Adjacent{}), fences{0, 1}, fences{1, 0}, fences{1, 0}},
		{NewPlain(), fences{1, 0}, fences{1, 0}, fences{1, 0}},
		{NewIzraelevitz(), fences{1, 0}, fences{1, 0}, fences{1, 0}},
		{LinkAndPersist{}, fences{0, 1}, fences{0, 1}, fences{0, 1}},
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
		d.CAS(th, a, 5, 6, P)
		flush("p-CAS", tc.cas, 6)
		flush("empty batch", fences{0, 1}, 6)
	}
}

// TestDeferredCommitAlwaysFences pins a window of one: Commit issues the
// operation's completion fence whether or not anything is pending, and
// only then releases the op's tags, so the op's deferred value is durable
// and untagged once Commit returns.
func TestDeferredCommitAlwaysFences(t *testing.T) {
	for _, pol := range []Policy{
		NewFliT(NewHashTable(1 << 12)), NewFliT(Adjacent{}), NewPlain(), NewIzraelevitz(), LinkAndPersist{},
	} {
		m, th := newDeferredMem(t)
		d := NewDeferred(pol)
		const a = pmem.Addr(64)
		commit := func(step string, val uint64) {
			t.Helper()
			before := th.Stats
			d.Commit(th)
			if f, e := th.Stats.PFences-before.PFences, th.Stats.ElidedFences-before.ElidedFences; f != 1 || e != 0 {
				t.Errorf("%s, %s: Commit issued %d fences, elided %d, want 1, 0", pol.Name(), step, f, e)
			}
			if p := m.PersistedWord(a) &^ DirtyBit; p != val || th.Pending() != 0 || len(d.tags) != 0 {
				t.Errorf("%s, %s: persisted %d with %d lines pending and %d tags held after Commit, want %d and none",
					pol.Name(), step, p, th.Pending(), len(d.tags), val)
			}
		}
		d.Load(th, a, P)
		d.Complete(th)
		commit("clean p-load", 0)
		d.Store(th, a, 5, P)
		d.Complete(th)
		commit("p-store", 5)
		if n, _ := LiveTagCount(pol); n != 0 {
			t.Errorf("%s: %d live tags after Commit, want 0", pol.Name(), n)
		}
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

// TestDeferredPassThrough: no-persist defers nothing, and neither Commit
// nor Flush does anything — not even count an elided fence.
func TestDeferredPassThrough(t *testing.T) {
	_, th := newDeferredMem(t)
	d := NewDeferred(NoPersist{})
	d.Store(th, 64, 1, P)
	d.Complete(th)
	d.Commit(th)
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
	d := NewDeferred(NewPlain())
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

// TestDeferredCASDelegates: link-and-persist's dirty-bit CAS keeps its
// own fences under the window (the bit may be cleared only once the value
// is durable), so its p-CAS is persistent before it returns, batch or no
// batch; no-persist's passes through without persisting at all.
func TestDeferredCASDelegates(t *testing.T) {
	m, th := newDeferredMem(t)
	d := NewDeferred(LinkAndPersist{})
	const a = pmem.Addr(64)
	if !d.CAS(th, a, 0, 5, P) {
		t.Fatal("CAS failed")
	}
	if m.PersistedWord(a)&^DirtyBit != 5 || th.Pending() != 0 {
		t.Fatal("link-and-persist p-CAS under the window was not immediately persistent")
	}

	m, th = newDeferredMem(t)
	d = NewDeferred(NoPersist{})
	if !d.CAS(th, a, 0, 5, P) {
		t.Fatal("CAS failed")
	}
	if m.PersistedWord(a) != 0 || th.Stats.PWBs != 0 || th.Stats.PFences != 0 {
		t.Fatal("no-persist p-CAS under the window persisted something")
	}
}

// TestDeferredRMWHoldsUntilCommit pins the window's RMWs per deferring
// policy: a successful p-CAS, p-FAA or p-Exchange applies and flushes but
// does not fence — under FliT its tag is held — until the commit; any
// fence in between (another RMW's leading fence) persists it and releases
// the tag on the spot; a failed p-CAS holds no tag of its own and leaves
// the flit-counter as it found it.
func TestDeferredRMWHoldsUntilCommit(t *testing.T) {
	const a, b = pmem.Addr(64), pmem.Addr(256) // different lines
	rmws := []struct {
		name  string
		apply func(d *Deferred, th *pmem.Thread, a pmem.Addr) uint64 // returns the value a now holds
	}{
		{"CAS", func(d *Deferred, th *pmem.Thread, a pmem.Addr) uint64 {
			if !d.CAS(th, a, 0, 5, P) {
				t.Fatal("CAS failed")
			}
			return 5
		}},
		{"FAA", func(d *Deferred, th *pmem.Thread, a pmem.Addr) uint64 { return d.FAA(th, a, 3, P) + 3 }},
		{"Exchange", func(d *Deferred, th *pmem.Thread, a pmem.Addr) uint64 { d.Exchange(th, a, 9, P); return 9 }},
	}
	for _, pol := range []Policy{
		NewFliT(NewHashTable(1 << 12)), NewFliT(Adjacent{}), NewPlain(), NewIzraelevitz(),
	} {
		c := Counters(pol)
		tagged := func(th *pmem.Thread, a pmem.Addr) bool { return c != nil && c.Tagged(th, a) }
		for _, rmw := range rmws {
			name := pol.Name() + "/" + rmw.name
			for _, end := range []string{"Commit", "Flush"} {
				m, th := newDeferredMem(t)
				d := NewDeferred(pol)
				v := rmw.apply(d, th, a)
				if th.Stats.PFences != 0 || th.Stats.PWBs != 1 || m.PersistedWord(a) != 0 {
					t.Fatalf("%s: the RMW issued %d fences and %d pwbs and persisted %d, want 0 / 1 / nothing",
						name, th.Stats.PFences, th.Stats.PWBs, m.PersistedWord(a))
				}
				if c != nil && (!tagged(th, a) || len(d.tags) != 1) {
					t.Fatalf("%s: the RMW's tag is not held (%d held)", name, len(d.tags))
				}
				if end == "Commit" {
					d.Commit(th)
				} else {
					d.Flush(th)
				}
				if th.Stats.PFences != 1 || m.PersistedWord(a) != v || tagged(th, a) || len(d.tags) != 0 {
					t.Fatalf("%s, %s: %d fences, persisted %d (want 1, %d), tag still held: %v",
						name, end, th.Stats.PFences, m.PersistedWord(a), v, tagged(th, a))
				}
			}

			// An intervening fence: the next RMW's leading fence drains
			// the first and releases its tag, and holds its own.
			m, th := newDeferredMem(t)
			d := NewDeferred(pol)
			v := rmw.apply(d, th, a)
			rmw.apply(d, th, b)
			if th.Stats.PFences != 1 || m.PersistedWord(a) != v || tagged(th, a) {
				t.Fatalf("%s: after the next RMW's leading fence: %d fences, persisted %d (want 1, %d), first tag held: %v",
					name, th.Stats.PFences, m.PersistedWord(a), v, tagged(th, a))
			}
			if c != nil && (!tagged(th, b) || len(d.tags) != 1) {
				t.Fatalf("%s: the second RMW's tag is not the one held (%d held)", name, len(d.tags))
			}
			if m.PersistedWord(b) != 0 {
				t.Fatalf("%s: the second RMW persisted before the commit", name)
			}
			d.Commit(th)
			if n, _ := LiveTagCount(pol); n != 0 {
				t.Fatalf("%s: %d live tags after Commit", name, n)
			}
		}

		// A failed p-CAS on a line another window holds tagged: no tag of
		// its own, the writer's tag untouched, and the line flushed onto
		// this thread's queue (always, under Plain and Izraelevitz).
		m, writer := newDeferredMem(t)
		wd := NewDeferred(pol)
		wd.Store(writer, a, 7, P)
		before, _ := LiveTagCount(pol)
		reader := m.RegisterThread()
		rd := NewDeferred(pol)
		if rd.CAS(reader, a, 0, 1, P) {
			t.Fatalf("%s: CAS with a stale value succeeded", pol.Name())
		}
		if after, _ := LiveTagCount(pol); after != before || len(rd.tags) != 0 {
			t.Fatalf("%s: failed p-CAS moved the live tags %d → %d, holds %d", pol.Name(), before, after, len(rd.tags))
		}
		if reader.Stats.PWBs != 1 || reader.Stats.PFences != 0 {
			t.Fatalf("%s: failed p-CAS on an in-flight line: %d pwbs, %d fences, want 1 / 0",
				pol.Name(), reader.Stats.PWBs, reader.Stats.PFences)
		}
		rd.Commit(reader)
		if m.PersistedWord(a) != 7 {
			t.Fatalf("%s: the reader's commit did not persist the value its failed p-CAS observed", pol.Name())
		}
		wd.Commit(writer)
	}
}

// TestDeferredCASUnfencedJoinsTheWindow: a p-CAS without its leading
// fence issues no fence with lines pending, elided or not, releases no
// tag held before it, and holds its own; the next fence — the commit —
// persists both writes together. A failed one keeps a p-load's flush of
// another window's tagged line. Link-and-persist passes through to its
// own fenced CAS.
func TestDeferredCASUnfencedJoinsTheWindow(t *testing.T) {
	const mark, link = pmem.Addr(64), pmem.Addr(256) // different lines
	for _, pol := range []Policy{
		NewFliT(NewHashTable(1 << 12)), NewFliT(Adjacent{}), NewPlain(), NewIzraelevitz(),
	} {
		c := Counters(pol)
		m, th := newDeferredMem(t)
		d := NewDeferred(pol)
		if !d.CAS(th, mark, 0, 1, P) || !d.CASUnfenced(th, link, 0, 2) {
			t.Fatalf("%s: CAS failed", pol.Name())
		}
		if th.Stats.PFences != 0 || th.Stats.ElidedFences != 1 || th.Stats.PWBs != 2 {
			t.Fatalf("%s: fences/elided/pwbs = %d/%d/%d, want 0/1/2 (only the first CAS's leading fence, elided)",
				pol.Name(), th.Stats.PFences, th.Stats.ElidedFences, th.Stats.PWBs)
		}
		if c != nil && (len(d.tags) != 2 || !c.Tagged(th, mark) || !c.Tagged(th, link)) {
			t.Fatalf("%s: %d tags held, want the first CAS's and its own", pol.Name(), len(d.tags))
		}
		if m.PersistedWord(mark) != 0 || m.PersistedWord(link) != 0 {
			t.Fatalf("%s: a write persisted before the commit", pol.Name())
		}
		d.Commit(th)
		if th.Stats.PFences != 1 || m.PersistedWord(mark) != 1 || m.PersistedWord(link) != 2 {
			t.Fatalf("%s: after the commit: %d fences, persisted %d/%d, want 1, 1/2",
				pol.Name(), th.Stats.PFences, m.PersistedWord(mark), m.PersistedWord(link))
		}
		if n, _ := LiveTagCount(pol); n != 0 {
			t.Fatalf("%s: %d live tags after Commit", pol.Name(), n)
		}

		wd := NewDeferred(pol)
		wd.Store(th, mark, 7, P)
		reader := m.RegisterThread()
		rd := NewDeferred(pol)
		if rd.CASUnfenced(reader, mark, 0, 1) {
			t.Fatalf("%s: CAS with a stale value succeeded", pol.Name())
		}
		if len(rd.tags) != 0 || reader.Stats.PWBs != 1 || reader.Stats.PFences != 0 {
			t.Fatalf("%s: failed CAS on an in-flight line: %d tags, %d pwbs, %d fences, want 0 / 1 / 0",
				pol.Name(), len(rd.tags), reader.Stats.PWBs, reader.Stats.PFences)
		}
		rd.Commit(reader)
		if m.PersistedWord(mark) != 7 {
			t.Fatalf("%s: the reader's commit did not persist the value its failed CAS observed", pol.Name())
		}
		wd.Commit(th)
	}

	m, th := newDeferredMem(t)
	d := NewDeferred(LinkAndPersist{})
	if !d.CASUnfenced(th, link, 0, 2) || th.Stats.PFences == 0 || m.PersistedWord(link)&^DirtyBit != 2 {
		t.Fatalf("link-and-persist: %d fences, persisted %d: its dirty-bit CAS must keep its own fences",
			th.Stats.PFences, m.PersistedWord(link))
	}
}

// TestDeferredRetireWaitsForCommit: a window holds the blocks its unlinks
// retire until its commit fence, and only then hands them to the
// reclamation handle; a window whose thread a crash killed does not
// commit (its Flush panics pmem.ErrCrashed) and hands nothing over;
// link-and-persist and no-persist, whose CASes are persisted (or never
// are) when they return, hand them over at once.
func TestDeferredRetireWaitsForCommit(t *testing.T) {
	frees := func(h *reclaim.Handle, ar *pheap.Arena) uint64 {
		h.Flush() // every bucket to the arena, grace period or not
		_, n, _ := ar.AllocStats()
		return n
	}
	for _, tc := range []struct {
		pol  Policy
		held bool
	}{
		{NewFliT(NewHashTable(1 << 12)), true},
		{NewPlain(), true},
		{NewIzraelevitz(), true},
		{LinkAndPersist{}, false},
		{NoPersist{}, false},
	} {
		for _, end := range []string{"Commit", "Flush", "crash"} {
			m, th := newDeferredMem(t)
			ar := pheap.New(m).NewArena()
			h := reclaim.NewDomain().NewHandleOwned(ar, th)
			d := NewDeferred(tc.pol)
			d.Retire(h, 512, 4)
			want := uint64(0) // held until the commit
			if !tc.held {
				want = 1
			}
			if n := frees(h, ar); n != want {
				t.Fatalf("%s: %d blocks freed before the commit, want %d", tc.pol.Name(), n, want)
			}
			switch end {
			case "Commit":
				d.Commit(th)
			case "Flush":
				d.Flush(th)
			case "crash":
				th.SetCrashAfter(0)
				func() {
					defer func() { recover() }()
					d.Complete(th)
				}()
				// Sess.Close's quiet commit of a crashed window.
				if crashed := pmem.RunToCrash(func() { d.Flush(th) }); crashed != (d.kind != noneFamily) {
					t.Fatalf("%s: a crashed window's Flush crashed=%v", tc.pol.Name(), crashed)
				}
			}
			if end != "crash" || !tc.held {
				want = 1
			}
			if n := frees(h, ar); n != want {
				t.Fatalf("%s, %s: %d blocks freed, want %d", tc.pol.Name(), end, n, want)
			}
			if held := uint64(len(d.retirees)); held != 1-want {
				t.Fatalf("%s, %s: the window still holds %d retirees, want %d", tc.pol.Name(), end, held, 1-want)
			}
		}
	}
}

// TestDeferredFailedCASReleasesTags pins Deferred.leadingFence, the window's
// leading RMW fence. A batch holding a deferred p-store has that store's
// line pending, so even a *failed* p-CAS — which fences nothing of its
// own — issues the leading fence: one fence, one line drained, the store
// durable, its tag released. An idle batch's failed p-CAS issues no fence
// at all and there is nothing to release.
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
