package core

import "flit/internal/pmem"

// Izraelevitz is the original durable-linearizability construction of
// Izraelevitz et al. [DISC'16], as summarized in §3.1 of the FliT paper:
// every load-acquire is accompanied by a pwb *and a pfence*, and every
// store-release by a pwb and pfence. It is the strictest (and slowest)
// baseline — unlike Plain, a p-load pays its fence immediately instead of
// deferring it to the next store or operation completion.
type Izraelevitz struct{}

// Name returns "izraelevitz".
func (Izraelevitz) Name() string { return "izraelevitz" }

// SupportsRMW reports true.
func (Izraelevitz) SupportsRMW() bool { return true }

// Load flushes and fences on every p-load.
func (Izraelevitz) Load(t *pmem.Thread, a pmem.Addr, pflag bool) uint64 {
	t.CheckCrash()
	v := t.Load(a)
	if pflag {
		t.PWB(a)
		t.PFence()
	}
	return v
}

// The store primitives spell out the fence-apply-flush-fence sequence
// directly (no apply-closure indirection on the hot path; see the note
// in flit.go). The leading fence is fenceDeps: every p-load and p-store
// of this construction fences on the spot, so it is only ever non-empty
// after a PersistObject.

// Store writes with flush+fence on p-stores.
func (Izraelevitz) Store(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) {
	t.CheckCrash()
	fenceDeps(t)
	t.Store(a, v)
	if pflag {
		t.PWB(a)
		t.PFence()
	}
}

// CAS compare-and-swaps with flush+fence on every p-CAS: a successful one
// persists the written value; a failed one observed the current value and
// pays a p-load's immediate flush+fence, in keeping with the
// construction's uniform treatment of acquire reads.
func (Izraelevitz) CAS(t *pmem.Thread, a pmem.Addr, old, new uint64, pflag bool) bool {
	t.CheckCrash()
	fenceDeps(t)
	ok := t.CAS(a, old, new)
	if pflag {
		t.PWB(a)
		t.PFence()
	}
	return ok
}

// FAA fetch-and-adds with flush+fence on p-FAA.
func (Izraelevitz) FAA(t *pmem.Thread, a pmem.Addr, delta uint64, pflag bool) uint64 {
	t.CheckCrash()
	fenceDeps(t)
	prev := t.FAA(a, delta)
	if pflag {
		t.PWB(a)
		t.PFence()
	}
	return prev
}

// Exchange swaps with flush+fence on p-exchange.
func (Izraelevitz) Exchange(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) uint64 {
	t.CheckCrash()
	fenceDeps(t)
	prev := t.Exchange(a, v)
	if pflag {
		t.PWB(a)
		t.PFence()
	}
	return prev
}

// LoadPrivate reads without flushing.
func (Izraelevitz) LoadPrivate(t *pmem.Thread, a pmem.Addr, pflag bool) uint64 {
	t.CheckCrash()
	return t.Load(a)
}

// StorePrivate writes, flushing+fencing p-stores.
func (Izraelevitz) StorePrivate(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) {
	t.CheckCrash()
	t.Store(a, v)
	if pflag {
		t.PWB(a)
		t.PFence()
	}
}

// PersistObject flushes the object's lines without fencing.
func (Izraelevitz) PersistObject(t *pmem.Thread, base pmem.Addr, n int) {
	t.CheckCrash()
	persistObject(t, base, n)
}

// Complete fences.
func (Izraelevitz) Complete(t *pmem.Thread) {
	t.CheckCrash()
	t.PFence()
}
