package core

import "flit/internal/pmem"

// Plain is the paper's baseline persistence method: pwb and pfence placed
// where the P-V Interface requires them, but with no tagging — every
// p-load flushes its location unconditionally, because without a tag the
// reader cannot know whether a concurrent p-store already persisted the
// value. This is the "plain" series the paper's figures show collapsing
// under read traffic.
type Plain struct{}

// Name returns "plain".
func (Plain) Name() string { return "plain" }

// SupportsRMW reports true.
func (Plain) SupportsRMW() bool { return true }

// Load flushes on every p-load — the cost FliT exists to avoid.
func (Plain) Load(t *pmem.Thread, a pmem.Addr, pflag bool) uint64 {
	t.CheckCrash()
	v := t.Load(a)
	if pflag {
		t.PWB(a)
	}
	return v
}

// The store primitives spell out the fence-apply-flush-fence sequence
// directly (no apply-closure indirection on the hot path; see the note
// in flit.go). The leading fence is fenceDeps: issued only when the
// thread has write-backs in flight — under Plain, whenever a p-load
// preceded the store.

// Store writes with flush+fence on p-stores.
func (Plain) Store(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) {
	t.CheckCrash()
	fenceDeps(t)
	t.Store(a, v)
	if pflag {
		t.PWB(a)
		t.PFence()
	}
}

// CAS compare-and-swaps with flush+fence on successful p-CAS. A failed
// p-CAS observed the current value and may act on it, so it pays the same
// unconditional flush as a p-load (fence deferred to the next store or
// completion).
func (Plain) CAS(t *pmem.Thread, a pmem.Addr, old, new uint64, pflag bool) bool {
	t.CheckCrash()
	fenceDeps(t)
	ok := t.CAS(a, old, new)
	if pflag {
		t.PWB(a)
		if ok {
			t.PFence()
		}
	}
	return ok
}

// FAA fetch-and-adds with flush+fence on p-FAA.
func (Plain) FAA(t *pmem.Thread, a pmem.Addr, delta uint64, pflag bool) uint64 {
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
func (Plain) Exchange(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) uint64 {
	t.CheckCrash()
	fenceDeps(t)
	prev := t.Exchange(a, v)
	if pflag {
		t.PWB(a)
		t.PFence()
	}
	return prev
}

// LoadPrivate reads without flushing (private locations have no pending
// foreign p-store).
func (Plain) LoadPrivate(t *pmem.Thread, a pmem.Addr, pflag bool) uint64 {
	t.CheckCrash()
	return t.Load(a)
}

// StorePrivate writes, flushing+fencing p-stores, without the leading fence.
func (Plain) StorePrivate(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) {
	t.CheckCrash()
	t.Store(a, v)
	if pflag {
		t.PWB(a)
		t.PFence()
	}
}

// PersistObject flushes the object's lines without fencing.
func (Plain) PersistObject(t *pmem.Thread, base pmem.Addr, n int) {
	t.CheckCrash()
	persistObject(t, base, n)
}

// Complete fences, persisting the operation's dependencies.
func (Plain) Complete(t *pmem.Thread) {
	t.CheckCrash()
	t.PFence()
}

// NoPersist is the non-persistent baseline (the grey dotted line in every
// figure): raw volatile instructions, no flushes, no fences. It provides
// no durability whatsoever and exists to bound attainable throughput.
type NoPersist struct{}

// Name returns "no-persist".
func (NoPersist) Name() string { return "no-persist" }

// SupportsRMW reports true.
func (NoPersist) SupportsRMW() bool { return true }

// Load reads the volatile value.
func (NoPersist) Load(t *pmem.Thread, a pmem.Addr, pflag bool) uint64 {
	t.CheckCrash()
	return t.Load(a)
}

// Store writes the volatile value.
func (NoPersist) Store(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) {
	t.CheckCrash()
	t.Store(a, v)
}

// CAS compare-and-swaps the volatile value.
func (NoPersist) CAS(t *pmem.Thread, a pmem.Addr, old, new uint64, pflag bool) bool {
	t.CheckCrash()
	return t.CAS(a, old, new)
}

// FAA fetch-and-adds the volatile value.
func (NoPersist) FAA(t *pmem.Thread, a pmem.Addr, delta uint64, pflag bool) uint64 {
	t.CheckCrash()
	return t.FAA(a, delta)
}

// Exchange swaps the volatile value.
func (NoPersist) Exchange(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) uint64 {
	t.CheckCrash()
	return t.Exchange(a, v)
}

// LoadPrivate reads the volatile value.
func (NoPersist) LoadPrivate(t *pmem.Thread, a pmem.Addr, pflag bool) uint64 {
	t.CheckCrash()
	return t.Load(a)
}

// StorePrivate writes the volatile value.
func (NoPersist) StorePrivate(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) {
	t.CheckCrash()
	t.Store(a, v)
}

// PersistObject is a no-op.
func (NoPersist) PersistObject(t *pmem.Thread, base pmem.Addr, n int) { t.CheckCrash() }

// Complete is a no-op.
func (NoPersist) Complete(t *pmem.Thread) { t.CheckCrash() }
