// Store-wide flat combining for embedded concurrent writers.
//
// The group-commit path (Batched-mode sessions) amortizes fences for a
// network pipeline: one goroutine owns the batch, so deferral is free.
// Embedded concurrent writers have no such owner — each session fencing
// per op is exactly the per-op durability cost flat combining targets.
// Here, sessions ANNOUNCE operations into a slot instead of executing
// them; one winner takes the store's combiner lock, collects every
// announced slot, executes the whole window through the combiner's own
// Batched session, commits it under ONE fence, and only then publishes
// results back into the slots. Losers spin on their slot.
//
// On top rides VSA-style net-delta coalescing: within one combining
// window the combiner sums OpAdd deltas per key in volatile memory and
// commits a single net store per key at window close. Self-cancelling
// increment/decrement traffic (workload mix G) thus persists near-zero
// lines. The reordering is linearizable because a pending delta is
// settled into the table before ANY other operation on its key executes,
// and durably safe because nothing is acknowledged before the window's
// fence — a crash mid-window loses only unacknowledged operations.
package store

import (
	"runtime"
	"sync"
	"sync/atomic"

	"flit/internal/pmem"
)

// Slot protocol states. Four states, not three: the combiner must mark a
// slot claimed while executing so later sweeps of the same window do not
// re-serve it, and may publish done only AFTER the window's single fence
// — done is the owner's durability acknowledgment.
const (
	slotEmpty uint32 = iota
	// slotAnnounced: owner has published ops/res and waits.
	slotAnnounced
	// slotClaimed: the combiner has executed (or is executing) the slot
	// within the current window; results are written but NOT yet durable.
	slotClaimed
	// slotDone: window fenced; results in res are durable. Owner resets
	// the slot to slotEmpty after reading them.
	slotDone
)

// combinePad keeps each slot's spin word on its own cache line (64-byte
// lines; the state word is 4 bytes).
const combinePad = 60

// cslot is one Combined session's announcement slot. The owner points
// ops and res at its vector, then releases them with the
// state.Store(slotAnnounced); the combiner acquires via state.Load and
// releases the results with state.Store(slotDone), so the non-atomic
// fields never race.
type cslot struct {
	state atomic.Uint32
	_     [combinePad]byte
	ops   []hashedOp
	res   []Result
}

// combiner is the store's flat combiner: the combining lock, the slot
// registry, and x, the Batched session the lock holder executes and
// commits every window through.
type combiner struct {
	x *sessionCore

	lock  atomic.Uint32
	slots atomic.Pointer[[]*cslot]
	regMu sync.Mutex // serializes copy-on-write slot registration

	// Net-delta state, live only within a window: pending[h] is the
	// accumulated OpAdd delta not yet applied to the table; dkeys keeps
	// insertion order so flushDeltas is deterministic.
	pending map[uint64]uint64
	dkeys   []uint64

	// served collects the slots executed in the current window, to flip
	// to slotDone after the fence.
	served []*cslot
}

// initCombiner builds the store's combiner at the first use of a
// Combined session. Its Batched session is exercised only under its lock.
func (s *Store) initCombiner() {
	if s.combCrashed.Load() {
		panic(pmem.ErrCrashed)
	}
	s.combOnce.Do(func() {
		c := &combiner{x: newSessionCore(s, Batched), pending: make(map[uint64]uint64)}
		empty := make([]*cslot, 0)
		c.slots.Store(&empty)
		s.comb = c
	})
}

// register adds a new slot for one session, copy-on-write so a scanning
// combiner never observes a partially-updated registry.
func (c *combiner) register() *cslot {
	sl := &cslot{}
	c.regMu.Lock()
	old := *c.slots.Load()
	next := make([]*cslot, len(old)+1)
	copy(next, old)
	next[len(old)] = sl
	c.slots.Store(&next)
	c.regMu.Unlock()
	return sl
}

// deregister withdraws a closed session's slot, copy-on-write like
// register, so the slot registry does not grow without bound under
// session churn. The slot must be idle (no announced, unserved ops).
func (c *combiner) deregister(sl *cslot) {
	c.regMu.Lock()
	old := *c.slots.Load()
	next := make([]*cslot, 0, len(old))
	for _, s := range old {
		if s != sl {
			next = append(next, s)
		}
	}
	c.slots.Store(&next)
	c.regMu.Unlock()
}

// applyCombined announces the hashed op vector in the session's slot,
// with res as the slot's result vector, and returns once the window that
// executed it has committed.
//
//flit:hotpath
func (c *sessionCore) applyCombined(ops []hashedOp, res []Result) {
	cb := c.st.comb
	if c.st.combCrashed.Load() {
		// The simulated process already crashed (the combiner hit its
		// crash countdown); every thread of the process dies with it.
		panic(pmem.ErrCrashed)
	}
	c.slot.ops, c.slot.res = ops, res
	c.slot.state.Store(slotAnnounced)
	cb.await(c.slot)
	c.slot.state.Store(slotEmpty)
}

// await blocks until sl reaches slotDone: spin, yielding to let the
// combiner (or other announcers) run, and volunteer as combiner whenever
// the lock is free. A successful volunteer run is guaranteed to serve
// our own announced slot — every sweep collects all announced slots and
// the first sweep always happens.
func (c *combiner) await(sl *cslot) {
	for {
		if sl.state.Load() == slotDone {
			return
		}
		if c.x.st.combCrashed.Load() {
			// Whole-process crash model: the combiner died mid-window, so
			// this thread dies too. The lock is never released — the store
			// stays frozen, as a crashed process's memory would.
			panic(pmem.ErrCrashed)
		}
		if c.lock.CompareAndSwap(0, 1) {
			c.run()
			c.lock.Store(0)
			continue
		}
		runtime.Gosched()
	}
}

// combineWindow is the target operation count per combined window: the
// combiner keeps sweeping the slots until it has executed at least this
// many operations or a sweep finds nothing announced, then fences once.
const combineWindow = 32

// run executes one combined window under the combiner lock: sweep the
// slot registry and execute announced slots until the window holds
// combineWindow ops or a sweep finds none, then commit everything under
// one fence and publish done. Nobody waiting means nothing to linger
// for: the window closes at once. A crash countdown firing mid-window
// panics through run with the lock held and the sticky combCrashed flag
// set, killing the whole simulated process.
func (c *combiner) run() {
	defer func() {
		if r := recover(); r != nil {
			c.x.st.combCrashed.Store(true)
			panic(r)
		}
	}()
	c.served = c.served[:0]
	for executed := 0; executed < combineWindow; {
		found := 0
		for _, sl := range *c.slots.Load() {
			if sl.state.Load() != slotAnnounced {
				continue
			}
			sl.state.Store(slotClaimed)
			c.execSlot(sl)
			c.served = append(c.served, sl)
			found += len(sl.ops)
		}
		if found == 0 {
			break
		}
		executed += found
	}
	if len(c.served) == 0 {
		return
	}
	c.flushDeltas()
	// THE fence: the Batched session's commit persists the whole window
	// (each dirty line drained once via the coalescing write-back queue)
	// and releases the deferred flit-tags; a window that left nothing
	// pending needs none. Only now are the window's results durable.
	c.x.commit()
	for _, sl := range c.served {
		sl.state.Store(slotDone)
	}
}

// exec runs one op on its shard's handle in the combiner's Batched
// session, through the sessions' one op switch. Not through do1: flitvet
// ackorder reads do1's Direct-mode commit as a commit, and would stop
// seeing the window's effects before its done-flips.
//
//flit:hotpath
func (c *combiner) exec(kind OpKind, h, val uint64) Result {
	return exec(c.x.ths[shardIdx(h, len(c.x.ths))], kind, h, val)
}

// execSlot applies one announced slot's ops through the combiner's
// Batched session, writing results into the slot. OpAdd traffic is
// diverted into the net-delta accumulator; every other op settles any
// pending delta on its key first, so results always reflect vector order
// per key, and then runs on its shard (exec).
//
//flit:hotpath
func (c *combiner) execSlot(sl *cslot) {
	for j := range sl.ops {
		op := &sl.ops[j]
		if op.kind == OpAdd {
			c.noteDelta(op.h, op.val)
			sl.res[j] = Result{}
			continue
		}
		c.settleDelta(op.h)
		sl.res[j] = c.exec(op.kind, op.h, op.val)
	}
}

// noteDelta folds an OpAdd into the window's pending net deltas.
//
//flit:hotpath
func (c *combiner) noteDelta(h, delta uint64) {
	if old, ok := c.pending[h]; ok {
		c.pending[h] = old + delta
		return
	}
	c.pending[h] = delta
	c.dkeys = append(c.dkeys, h)
}

// settleDelta applies the pending net delta on h, if any, before a
// non-Add operation on h observes the table. Required for correctness,
// not just freshness: e.g. a Delete after a pending Add on an absent key
// must find the key present.
//
//flit:hotpath
func (c *combiner) settleDelta(h uint64) {
	d, ok := c.pending[h]
	if !ok {
		return
	}
	delete(c.pending, h)
	c.exec(OpAdd, h, d)
}

// flushDeltas commits the window's surviving net deltas, one store per
// key. A net-zero delta on an already-present key needs no write at all
// — the VSA win for self-cancelling traffic — but on an absent key even
// net zero must insert (Add's insert-if-absent semantics are part of
// every announced op's contract).
//
//flit:hotpath
func (c *combiner) flushDeltas() {
	if len(c.dkeys) == 0 {
		return
	}
	for _, h := range c.dkeys {
		d, ok := c.pending[h]
		if !ok {
			continue // settled mid-window by a same-key operation
		}
		delete(c.pending, h)
		if d == 0 && c.exec(OpContains, h, 0).Ok {
			continue
		}
		c.exec(OpAdd, h, d)
	}
	c.dkeys = c.dkeys[:0]
}
