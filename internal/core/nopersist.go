package core

import "flit/internal/pmem"

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
