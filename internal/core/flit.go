package core

import "flit/internal/pmem"

// FliT is the paper's Algorithm 4 ("Flush if Tagged"). Every shared store
// first fences the thread's dependencies (P-V Condition 4) — when it has
// any in flight, see fenceDeps; a p-store additionally tags its location's flit-counter, writes, flushes,
// fences, and untags; a p-load flushes its location only while tagged.
// This elides nearly every load-side flush: in steady state a location's
// pending-store window is tiny, so loads almost never see a tag.
type FliT struct {
	// C places the flit-counters (adjacent, hashed, packed, per-line).
	C CounterScheme
}

// NewFliT returns a FliT policy over the given counter placement.
func NewFliT(c CounterScheme) *FliT { return &FliT{C: c} }

// Name returns "flit/" plus the counter scheme name.
func (f *FliT) Name() string { return f.C.Name() }

// SupportsRMW reports true: FliT instruments any primitive, one of its
// advantages over link-and-persist.
func (f *FliT) SupportsRMW() bool { return true }

// Load implements Algorithm 4's shared-load.
//
//flit:hotpath
func (f *FliT) Load(t *pmem.Thread, a pmem.Addr, pflag bool) uint64 {
	t.CheckCrash()
	v := t.Load(a)
	if pflag && f.C.Tagged(t, a) {
		t.PWB(a)
	}
	return v
}

// fenceDeps is the leading fence of every shared store, in every policy:
// the thread's dependencies persist before the store linearizes (P-V
// Condition 4). It is issued only when the thread has write-backs in
// flight. With nothing pending the condition holds vacuously — every
// dependency is already durable — so the fence would order nothing and is
// counted as elided instead:
//
//   - a p-load that saw no tag (no dirty bit) read a value its writer
//     flushed and fenced before untagging, and one that saw a tag — or any
//     p-load under Plain — flushed the line onto *this* thread's queue
//     (Izraelevitz fenced it on the spot);
//   - a failed p-CAS carries the same obligation and discharges it the
//     same way;
//   - the thread's own p-stores fenced before they returned, and
//     PersistObject's flushes sit on this queue until a fence takes them.
//
// So an un-persisted dependency implies a non-empty queue, and an empty
// queue implies there is nothing for the fence to wait for. This is the
// software twin of a thread-local "flushed since my last fence" flag kept
// beside a pwb wrapper. The group-commit fence (Deferred.Flush) is
// conditional by the same argument; the fence that persists a p-store's
// own value, StorePrivate's and Complete's are always issued.
//
//flit:hotpath
func fenceDeps(t *pmem.Thread) {
	if t.Pending() == 0 {
		t.Stats.ElidedFences++
		return
	}
	t.PFence()
}

// Each shared-store primitive spells out Algorithm 4's skeleton —
// dependency fence, tag, apply, flush+fence, untag — directly around its
// memory instruction rather than threading an apply closure through a
// shared helper: the closure allocation and indirect call sat on every
// instrumented store of every workload. persistTagged is the shared
// epilogue for the primitives that always write.

// persistTagged flushes, fences and untags a tagged p-store that was
// applied (the success epilogue of Algorithm 4's shared-store).
//
//flit:hotpath
func (f *FliT) persistTagged(t *pmem.Thread, a pmem.Addr) {
	t.PWB(a)
	t.PFence() // the new value is persisted before untagging
	f.C.Dec(t, a)
}

// Store implements Algorithm 4's shared-store for a plain write.
//
//flit:hotpath
func (f *FliT) Store(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) {
	t.CheckCrash()
	fenceDeps(t) // dependencies persist before the store linearizes
	if !pflag {
		t.Store(a, v)
		return
	}
	f.C.Inc(t, a)
	t.Store(a, v)
	f.persistTagged(t, a)
}

// CAS implements Algorithm 4's shared-store for compare-and-swap.
//
//flit:hotpath
func (f *FliT) CAS(t *pmem.Thread, a pmem.Addr, old, new uint64, pflag bool) bool {
	t.CheckCrash()
	fenceDeps(t) // dependencies persist before the store linearizes
	if !pflag {
		return t.CAS(a, old, new)
	}
	f.C.Inc(t, a)
	if t.CAS(a, old, new) {
		f.persistTagged(t, a)
		return true
	}
	// On a failed CAS nothing was written, so the store-side flush is
	// skipped and the location untagged directly. But the failure
	// *observed* the current value, and the thread may act on that
	// observation (a queue skipping a taken node, a helper seeing a mark),
	// so a failed p-CAS carries a p-load's obligation: flush if another
	// p-store is still pending, deferring the fence to the next shared
	// store or operation completion, exactly as Load does. Without this,
	// an operation can complete depending on a value a crash then loses —
	// the hole the dlcheck enumerator catches on the durable queue.
	f.C.Dec(t, a)
	if f.C.Tagged(t, a) {
		t.PWB(a)
	}
	return false
}

// FAA implements Algorithm 4's shared-store for fetch-and-add.
//
//flit:hotpath
func (f *FliT) FAA(t *pmem.Thread, a pmem.Addr, delta uint64, pflag bool) uint64 {
	t.CheckCrash()
	fenceDeps(t) // dependencies persist before the store linearizes
	if !pflag {
		return t.FAA(a, delta)
	}
	f.C.Inc(t, a)
	prev := t.FAA(a, delta)
	f.persistTagged(t, a)
	return prev
}

// Exchange implements Algorithm 4's shared-store for swap.
//
//flit:hotpath
func (f *FliT) Exchange(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) uint64 {
	t.CheckCrash()
	fenceDeps(t) // dependencies persist before the store linearizes
	if !pflag {
		return t.Exchange(a, v)
	}
	f.C.Inc(t, a)
	prev := t.Exchange(a, v)
	f.persistTagged(t, a)
	return prev
}

// LoadPrivate implements Algorithm 4's private-load: no tag check — a
// private location cannot have a pending p-store by another thread.
//
//flit:hotpath
func (f *FliT) LoadPrivate(t *pmem.Thread, a pmem.Addr, pflag bool) uint64 {
	t.CheckCrash()
	return t.Load(a)
}

// StorePrivate implements Algorithm 4's private-store: no counter, no
// leading fence; a p-store still flushes and fences before returning.
//
//flit:hotpath
func (f *FliT) StorePrivate(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) {
	t.CheckCrash()
	t.Store(a, v)
	if pflag {
		t.PWB(a)
		t.PFence()
	}
}

// PersistObject flushes the object's lines without fencing.
//
//flit:hotpath
func (f *FliT) PersistObject(t *pmem.Thread, base pmem.Addr, n int) {
	t.CheckCrash()
	persistObject(t, base, n)
}

// Complete implements operation_completion(): a fence persists every
// dependency of the finished operation.
//
//flit:hotpath
func (f *FliT) Complete(t *pmem.Thread) {
	t.CheckCrash()
	t.PFence()
}

// persistObject issues one PWB per cache line covering [base, base+n).
//
//flit:hotpath
func persistObject(t *pmem.Thread, base pmem.Addr, n int) {
	end := base + pmem.Addr(n)
	for a := base; a < end; a = (a + pmem.WordsPerLine) &^ (pmem.WordsPerLine - 1) {
		t.PWB(a)
	}
}
