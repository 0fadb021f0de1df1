// Package store exercises ackorder's combiner shape: the slot
// done-flip is the ack and must come after the Deferred flush.
package store

import "sync/atomic"

const (
	slotEmpty uint32 = iota
	slotAnnounced
	slotClaimed
	slotDone
)

type slot struct {
	state atomic.Uint32
	ops   int
}

type deferred struct{ stores int }

func (d *deferred) Flush() int {
	n := d.stores
	d.stores = 0
	return n
}

type table struct{}

func (t *table) Put(k, v uint64) {}

// goodCombine is the real combiner ordering: effects, flush, done-flip.
func goodCombine(sl *slot, d *deferred, ht *table) {
	for i := 0; i < sl.ops; i++ {
		ht.Put(uint64(i), uint64(i))
		d.stores++
	}
	d.Flush()
	sl.state.Store(slotDone)
}

// badCombine flips done before the flush: an acked-but-unpersisted
// window, the delegation-protocol bug class.
func badCombine(sl *slot, d *deferred, ht *table) {
	ht.Put(1, 2)
	d.stores++
	sl.state.Store(slotDone) // want "slot done-flip (slotDone) is reachable before the pending batch is committed"
	d.Flush()
}

// recycleSlots: non-Done transitions are not acks.
func recycleSlots(sl *slot, ht *table) {
	ht.Put(3, 4)
	sl.state.Store(slotEmpty)
	sl.state.Store(slotAnnounced)
}

// exec returns the effect of whichever case runs: every exit of the
// callee leaves the batch dirty, though no path falls through.
func exec(ht *table, put bool, k uint64) bool {
	switch {
	case put:
		ht.Put(k, k)
		return true
	default:
		return false
	}
}

// badCombineViaExec runs its op through exec and flips done before the
// flush: the callee's effect reaches the caller through its returns.
func badCombineViaExec(sl *slot, d *deferred, ht *table) {
	exec(ht, true, 5)
	sl.state.Store(slotDone) // want "slot done-flip (slotDone) is reachable before the pending batch is committed"
	d.Flush()
}
