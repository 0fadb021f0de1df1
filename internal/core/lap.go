package core

import "flit/internal/pmem"

// LinkAndPersist implements the link-and-persist technique of David et
// al. [ATC'18], the prior flush-avoidance scheme FliT is compared against.
// Instead of a separate counter, it steals one bit (DirtyBit) from each
// word: a p-store installs its value with the bit set, flushes, fences,
// and clears the bit; a p-load flushes only while the bit is set.
//
// The technique's restrictions, faithfully reproduced:
//   - every store must be a CAS (Store is emulated with a CAS loop, and
//     FAA/Exchange panic), otherwise a blind write could clear the dirty
//     bit of a value that was never persisted;
//   - the instrumented word must have a spare bit, so the policy is
//     inapplicable to algorithms that use them all (the NM-BST here).
//
// Values returned by loads and expected by CAS are logical (bit stripped).
type LinkAndPersist struct{}

// Name returns "link-and-persist".
func (LinkAndPersist) Name() string { return "link-and-persist" }

// SupportsRMW reports false: link-and-persist cannot instrument FAA or
// swap.
func (LinkAndPersist) SupportsRMW() bool { return false }

// Load returns the logical value; a p-load flushes while the dirty bit is
// up (the writer, or a helping CAS, clears it after persisting).
func (LinkAndPersist) Load(t *pmem.Thread, a pmem.Addr, pflag bool) uint64 {
	t.CheckCrash()
	v := t.Load(a)
	if v&DirtyBit != 0 {
		if pflag {
			t.PWB(a)
		}
		v &^= DirtyBit
	}
	return v
}

// help persists and clears a dirty word so a store can proceed without
// destroying the un-persisted flag (the CAS-only discipline in action).
func lapHelp(t *pmem.Thread, a pmem.Addr, raw uint64) {
	t.PWB(a)
	t.PFence()
	t.CAS(a, raw, raw&^DirtyBit)
}

// CAS installs new if the logical value equals old, after fencing the
// thread's in-flight dependencies (fenceDeps). A p-CAS writes
// new|DirtyBit, flushes, fences, then clears the bit (unless a helper
// already did).
func (LinkAndPersist) CAS(t *pmem.Thread, a pmem.Addr, old, new uint64, pflag bool) bool {
	t.CheckCrash()
	fenceDeps(t) // dependencies persist before the store linearizes
	for {
		raw := t.Load(a)
		if raw&^DirtyBit != old {
			// The failure observed the current value; if that value is
			// still dirty (un-persisted), a failed p-CAS inherits a
			// p-load's obligation and flushes it, fence deferred to the
			// next store or completion — same as Load's dirty path.
			if pflag && raw&DirtyBit != 0 {
				t.PWB(a)
			}
			return false
		}
		if raw&DirtyBit != 0 {
			lapHelp(t, a, raw)
			continue
		}
		installed := new
		if pflag {
			installed |= DirtyBit
		}
		if !t.CAS(a, raw, installed) {
			continue // raw changed under us; re-evaluate
		}
		if pflag {
			t.PWB(a)
			t.PFence()
			t.CAS(a, installed, new) // clear own flag; failure = helped
		}
		return true
	}
}

// Store emulates an unconditional write with a CAS loop, preserving the
// no-blind-write discipline; the same dependency fence leads it.
func (lp LinkAndPersist) Store(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) {
	t.CheckCrash()
	fenceDeps(t)
	for {
		raw := t.Load(a)
		if raw&DirtyBit != 0 {
			lapHelp(t, a, raw)
			continue
		}
		installed := v
		if pflag {
			installed |= DirtyBit
		}
		if !t.CAS(a, raw, installed) {
			continue
		}
		if pflag {
			t.PWB(a)
			t.PFence()
			t.CAS(a, installed, v)
		}
		return
	}
}

// FAA is not expressible under link-and-persist; callers must check
// SupportsRMW.
func (LinkAndPersist) FAA(t *pmem.Thread, a pmem.Addr, delta uint64, pflag bool) uint64 {
	panic("core: link-and-persist cannot instrument fetch-and-add (paper §2)")
}

// Exchange is not expressible under link-and-persist; callers must check
// SupportsRMW.
func (LinkAndPersist) Exchange(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) uint64 {
	panic("core: link-and-persist cannot instrument swap (paper §2)")
}

// LoadPrivate reads the logical value without flushing.
func (LinkAndPersist) LoadPrivate(t *pmem.Thread, a pmem.Addr, pflag bool) uint64 {
	t.CheckCrash()
	return t.Load(a) &^ DirtyBit
}

// StorePrivate writes directly — no dirty bit is needed on a location only
// this thread can reach; a p-store flushes and fences.
func (LinkAndPersist) StorePrivate(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) {
	t.CheckCrash()
	t.Store(a, v)
	if pflag {
		t.PWB(a)
		t.PFence()
	}
}

// PersistObject flushes the object's lines without fencing.
func (LinkAndPersist) PersistObject(t *pmem.Thread, base pmem.Addr, n int) {
	t.CheckCrash()
	persistObject(t, base, n)
}

// Complete fences, persisting the operation's dependencies.
func (LinkAndPersist) Complete(t *pmem.Thread) {
	t.CheckCrash()
	t.PFence()
}
