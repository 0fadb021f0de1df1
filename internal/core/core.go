// Package core implements the paper's primary contribution: the P-V
// instruction interface (Definition 1) and the FliT algorithm (Algorithm 4)
// that realizes it, alongside the competing persistence methods evaluated
// in the paper — link-and-persist, plain flushing, and the non-persistent
// baseline.
//
// A Policy instruments every memory instruction of a data structure. Each
// instrumented instruction carries a pflag: true makes it a p-instruction
// (its effect must be persisted per the P-V Interface), false makes it a
// v-instruction (persistence optimized away). Making every instruction a
// p-instruction turns any linearizable data structure durably linearizable
// (Theorem 3.1); the NVtraverse and manual durability methods downgrade
// carefully chosen instructions to v-instructions for speed.
//
// The FliT policy tracks pending p-stores with flit-counters whose
// placement is pluggable (CounterScheme): adjacent to each word, in a
// hash table of configurable size, packed eight to a word, or one per
// cache line (the paper's future-work variant).
//
// Algorithm 4's shared-store skeleton is written once, in Deferred, for
// FliT and for the flush-always baselines (plain, Izraelevitz): the raw
// policies that NewFliT, NewPlain and NewIzraelevitz build commit after
// every instruction, as the paper states Algorithm 4, and
// NewDeferred opens a commit window over any policy that closes it once
// per operation (Commit) or per batch (Flush). Link-and-persist (a dirty
// bit in the word) and no-persist are policies of their own.
package core

import "flit/internal/pmem"

// Pflag values, for readable call sites: instr(..., core.P) persists the
// instruction's effect, instr(..., core.V) leaves it volatile.
const (
	P = true
	V = false
)

// Bit layout of instrumented words. Offset pointers and keys/values stored
// through a Policy must fit in the low 60 bits; the high bits carry
// algorithm metadata.
const (
	// MarkBit is the Harris logical-deletion mark (owned by data structures).
	MarkBit uint64 = 1 << 63
	// DirtyBit is reserved by the LinkAndPersist policy as the
	// flushed-or-not flag that the link-and-persist technique steals from
	// each word. Data structures must keep it clear; the Natarajan–Mittal
	// BST cannot (it uses its spare bits), which is exactly why the paper
	// reports link-and-persist as inapplicable to the BST.
	DirtyBit uint64 = 1 << 62
	// FlagBit and TagBit are the Natarajan–Mittal BST edge states.
	FlagBit uint64 = 1 << 61
	TagBit  uint64 = 1 << 60
	// PayloadMask isolates the payload (pointer or datum) of a word.
	PayloadMask uint64 = TagBit - 1
)

// Policy is the P-V Interface: the set of instrumented memory instructions
// a persistent algorithm is written against. Shared instructions may race
// with other threads on the same location; the Private variants (and
// PersistObject) may only target locations no other thread can reach, such
// as a freshly allocated node before it is linked in.
//
// All implementations inject simulated crashes (Thread.CheckCrash) at
// instruction granularity, so crash tests interrupt operations anywhere a
// real power failure could.
type Policy interface {
	// Name identifies the policy in reports (e.g. "flit-HT(1MB)").
	Name() string

	// Load returns the value at a; as a p-load it guarantees the value is
	// persisted before the thread's next shared store or op completion.
	Load(t *pmem.Thread, a pmem.Addr, pflag bool) uint64
	// Store writes v to a; as a p-store the value is persisted before the
	// instruction returns.
	Store(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool)
	// CAS atomically replaces old with new at a and reports success.
	CAS(t *pmem.Thread, a pmem.Addr, old, new uint64, pflag bool) bool
	// FAA atomically adds delta at a, returning the prior value. Policies
	// for which FAA is inapplicable (link-and-persist) panic.
	FAA(t *pmem.Thread, a pmem.Addr, delta uint64, pflag bool) uint64
	// Exchange atomically swaps v into a, returning the prior value.
	// Policies for which it is inapplicable (link-and-persist) panic.
	Exchange(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) uint64

	// LoadPrivate reads a location only this thread can access. Private
	// p-loads never flush: a private location has no pending p-store by
	// another thread (Algorithm 4).
	LoadPrivate(t *pmem.Thread, a pmem.Addr, pflag bool) uint64
	// StorePrivate writes a location only this thread can access, skipping
	// the flit-counter and the leading fence (Algorithm 4's private-store).
	StorePrivate(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool)
	// PersistObject write-backs every line of the n-word private object at
	// base without fencing: a batch of private p-stores whose fence is
	// deferred to the next shared store or completion (P-V Condition 4
	// orders it before the object becomes shared).
	PersistObject(t *pmem.Thread, base pmem.Addr, n int)

	// Complete is the paper's operation_completion(): it must be called at
	// the end of every data structure operation.
	Complete(t *pmem.Thread)

	// SupportsRMW reports whether FAA/Exchange are available (the
	// link-and-persist technique requires all stores to be CAS).
	SupportsRMW() bool
}
