package core

import "flit/internal/pmem"

// NewFliT returns the paper's Algorithm 4 ("Flush if Tagged") over the
// given counter placement, as a raw policy (a Deferred that commits after
// every instruction). Every shared store first fences the thread's
// dependencies (P-V Condition 4) — when it has any in flight, see
// fenceDeps; a p-store additionally tags its location's flit-counter,
// writes, flushes, fences, and untags; a p-load flushes its location only
// while tagged. This elides nearly every load-side flush: in steady state
// a location's pending-store window is tiny, so loads almost never see a
// tag. Its name is the counter scheme's.
func NewFliT(c CounterScheme) *Deferred {
	return &Deferred{name: c.Name(), c: c, kind: flitFamily}
}

// NewPlain returns the paper's baseline persistence method: pwb and
// pfence placed where the P-V Interface requires them, but with no
// tagging — every p-load flushes its location unconditionally, because
// without a tag the reader cannot know whether a concurrent p-store
// already persisted the value. This is the "plain" series the paper's
// figures show collapsing under read traffic.
func NewPlain() *Deferred { return &Deferred{name: PolicyPlain, kind: flushFamily} }

// NewIzraelevitz returns the original durable-linearizability
// construction of Izraelevitz et al. [DISC'16], as summarized in §3.1 of
// the FliT paper: every load-acquire is accompanied by a pwb *and a
// pfence*, and every store-release by a pwb and pfence. It is the
// strictest (and slowest) baseline — unlike Plain, a p-load (and a failed
// p-CAS) pays its fence immediately instead of deferring it to the next
// store or operation completion.
func NewIzraelevitz() *Deferred {
	return &Deferred{name: PolicyIz, kind: flushFamily, eager: true}
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
//   - the thread's own p-stores fenced before they returned (in a window:
//     they sit on this queue until its commit), and PersistObject's
//     flushes sit on this queue until a fence takes them.
//
// So an un-persisted dependency implies a non-empty queue, and an empty
// queue implies there is nothing for the fence to wait for. This is the
// software twin of a thread-local "flushed since my last fence" flag kept
// beside a pwb wrapper. The group-commit fence (Deferred.Flush) is
// conditional by the same argument; the fence that persists a p-store's
// own value, StorePrivate's and the completion fence (Deferred.Commit)
// are always issued.
//
//flit:hotpath
func fenceDeps(t *pmem.Thread) {
	if t.Pending() == 0 {
		t.Stats.ElidedFences++
		return
	}
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
