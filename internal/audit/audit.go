// Package audit provides a runtime conformance checker for the P-V
// Interface (Definition 1 of the paper). An Auditor wraps any core.Policy
// and tracks, per thread, the dependency set the definition prescribes:
//
//   - Condition 2: the thread depends on its own linearized p-stores;
//   - Condition 3: a p-load adds a dependency on the loaded value;
//   - Condition 4: at every shared store and at operation completion, all
//     dependencies must be persisted.
//
// A policy wrapper sees a shared store only before and after it, and a
// p-store's own trailing fence drains whatever the thread had pending — so
// the check after the store cannot tell a dependency fenced *before* the
// store linearized from one swept up afterwards. For FliT the auditor
// closes that gap (NewFliT): a p-store tags its location after the
// dependency fence and before it applies, and the audited counter scheme
// runs the Condition-4 check at that instant.
//
// At each checkpoint the auditor inspects the simulated persistent shadow:
// a dependency (addr, value) is discharged if the shadow holds the value,
// or if the volatile layer has moved past it (a newer store linearized on
// that location — the newer value carries the obligation forward, exactly
// as in the paper's proof of Theorem 3.1). Anything else is a violation.
//
// The auditor is exact for quiescent checks and conservative under
// concurrency (a racing overwrite between the two inspections could mask
// a real violation, never invent one in practice); the crash-test harness
// remains the end-to-end oracle. Use the auditor to localize *which
// instruction* broke the protocol.
package audit

import (
	"fmt"
	"sync"

	"flit/internal/core"
	"flit/internal/pmem"
)

// Violation is one failed Condition-4 check.
type Violation struct {
	Thread     int
	Addr       pmem.Addr
	Want       uint64 // the depended-on value
	Shadow     uint64 // what the persistent shadow held
	Checkpoint string
}

func (v Violation) String() string {
	return fmt.Sprintf("thread %d: dependency on %d=%d not persisted at %s (shadow holds %d)",
		v.Thread, v.Addr, v.Want, v.Checkpoint, v.Shadow)
}

// Auditor wraps an inner policy with dependency tracking. Create one per
// memory; threads are tracked independently and lock-free on the hot path
// (each thread owns its dependency map).
type Auditor struct {
	Inner core.Policy
	Mem   *pmem.Memory

	mu         sync.Mutex
	threads    map[*pmem.Thread]*threadState
	violations []Violation
}

// threadState is one thread's dependency set, and the shared store it is
// inside (the checkpoint a tag-time check reports).
type threadState struct {
	deps map[pmem.Addr]uint64
	in   string
}

// New wraps inner with auditing against mem's persistent shadow.
func New(inner core.Policy, mem *pmem.Memory) *Auditor {
	return &Auditor{Inner: inner, Mem: mem, threads: make(map[*pmem.Thread]*threadState)}
}

// NewFliT audits the flit-HT policy (a counter table of htBytes) with
// Condition 4 also checked at the instant each p-store linearizes, not
// only once it has returned: a dependency fence that is skipped when the
// thread does have write-backs in flight is flagged at the store that
// needed it, even though that store's trailing fence persists the
// dependency a moment later.
func NewFliT(htBytes int, mem *pmem.Memory) *Auditor {
	a := New(nil, mem)
	a.Inner = core.NewFliT(tagCheck{core.NewHashTable(htBytes), a})
	return a
}

// tagCheck is the counter scheme NewFliT hands its policy. Algorithm 4
// tags a p-store's location after the leading fence and before the apply,
// so Inc is exactly where "all dependencies persisted" must already hold.
type tagCheck struct {
	core.CounterScheme
	a *Auditor
}

func (s tagCheck) Inc(t *pmem.Thread, addr pmem.Addr) {
	s.a.check(t, s.a.stateOf(t).in+", before it linearizes")
	s.CounterScheme.Inc(t, addr)
}

// Violations returns all recorded violations.
func (a *Auditor) Violations() []Violation {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Violation(nil), a.violations...)
}

func (a *Auditor) stateOf(t *pmem.Thread) *threadState {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.threads[t]
	if st == nil {
		st = &threadState{deps: make(map[pmem.Addr]uint64)}
		a.threads[t] = st
	}
	return st
}

// record adds a dependency (Conditions 2 and 3).
func (a *Auditor) record(t *pmem.Thread, addr pmem.Addr, v uint64) {
	a.stateOf(t).deps[addr] = v &^ core.DirtyBit
}

// check verifies Condition 4 and clears discharged dependencies.
func (a *Auditor) check(t *pmem.Thread, where string) {
	d := a.stateOf(t).deps
	for addr, want := range d {
		shadow := a.Mem.PersistedWord(addr) &^ core.DirtyBit
		if shadow == want {
			delete(d, addr)
			continue
		}
		if vol := a.Mem.VolatileWord(addr) &^ core.DirtyBit; vol != want {
			// Superseded: a newer store linearized here; its writer (or
			// this thread's later p-load of it) carries the obligation.
			delete(d, addr)
			continue
		}
		a.mu.Lock()
		a.violations = append(a.violations, Violation{
			Thread: t.ID, Addr: addr, Want: want, Shadow: shadow, Checkpoint: where,
		})
		a.mu.Unlock()
		delete(d, addr)
	}
}

// Name labels the audited policy.
func (a *Auditor) Name() string { return "audit(" + a.Inner.Name() + ")" }

// SupportsRMW defers to the inner policy.
func (a *Auditor) SupportsRMW() bool { return a.Inner.SupportsRMW() }

// Load delegates, then records the Condition-3 dependency for p-loads.
func (a *Auditor) Load(t *pmem.Thread, addr pmem.Addr, pflag bool) uint64 {
	v := a.Inner.Load(t, addr, pflag)
	if pflag {
		a.record(t, addr, v)
	}
	return v
}

// Store delegates (the inner leading fence runs first), then checks
// Condition 4 and records the Condition-2 dependency for p-stores.
func (a *Auditor) Store(t *pmem.Thread, addr pmem.Addr, v uint64, pflag bool) {
	a.stateOf(t).in = "shared store"
	a.Inner.Store(t, addr, v, pflag)
	a.check(t, "shared store")
	if pflag {
		a.record(t, addr, v)
	}
}

// CAS delegates, then checks Condition 4; a successful p-CAS records its
// new value as a dependency.
func (a *Auditor) CAS(t *pmem.Thread, addr pmem.Addr, old, new uint64, pflag bool) bool {
	a.stateOf(t).in = "shared CAS"
	ok := a.Inner.CAS(t, addr, old, new, pflag)
	a.check(t, "shared CAS")
	if ok && pflag {
		a.record(t, addr, new)
	}
	return ok
}

// FAA delegates, then checks Condition 4 and records the new value.
func (a *Auditor) FAA(t *pmem.Thread, addr pmem.Addr, delta uint64, pflag bool) uint64 {
	a.stateOf(t).in = "shared FAA"
	prev := a.Inner.FAA(t, addr, delta, pflag)
	a.check(t, "shared FAA")
	if pflag {
		a.record(t, addr, prev+delta)
	}
	return prev
}

// Exchange delegates, then checks Condition 4 and records the new value.
func (a *Auditor) Exchange(t *pmem.Thread, addr pmem.Addr, v uint64, pflag bool) uint64 {
	a.stateOf(t).in = "shared exchange"
	prev := a.Inner.Exchange(t, addr, v, pflag)
	a.check(t, "shared exchange")
	if pflag {
		a.record(t, addr, v)
	}
	return prev
}

// LoadPrivate delegates; private loads add no dependencies (their location
// has no pending foreign p-store).
func (a *Auditor) LoadPrivate(t *pmem.Thread, addr pmem.Addr, pflag bool) uint64 {
	return a.Inner.LoadPrivate(t, addr, pflag)
}

// StorePrivate delegates and records p-stores (persisted immediately by
// the inner policy, so the dependency discharges at the next check).
func (a *Auditor) StorePrivate(t *pmem.Thread, addr pmem.Addr, v uint64, pflag bool) {
	a.Inner.StorePrivate(t, addr, v, pflag)
	if pflag {
		a.record(t, addr, v)
	}
}

// PersistObject delegates and records every covered word as a dependency:
// the batched private p-stores must persist before the object is shared,
// which the next checkpoint verifies.
func (a *Auditor) PersistObject(t *pmem.Thread, base pmem.Addr, n int) {
	a.Inner.PersistObject(t, base, n)
	for i := 0; i < n; i++ {
		addr := base + pmem.Addr(i)
		a.record(t, addr, a.Mem.VolatileWord(addr))
	}
}

// Complete delegates, then checks Condition 4 at operation completion.
func (a *Auditor) Complete(t *pmem.Thread) {
	a.Inner.Complete(t)
	a.check(t, "operation completion")
}
