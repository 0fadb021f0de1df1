// Per-shard flat combining for embedded concurrent writers.
//
// The group-commit path (Batched-mode sessions) amortizes fences
// for a network pipeline: one goroutine owns the batch, so deferral is
// free. Embedded concurrent writers have no such owner — each session
// fencing per op is exactly the per-op durability cost the ROADMAP's
// flat-combining item targets. Here, sessions ANNOUNCE operations into a
// per-shard slot array instead of executing them; one winner takes the
// shard's combiner lock, collects every announced slot, executes the
// whole window through the deferred group-commit skeleton, commits it
// under ONE fence via the coalescing write-back queue, and only then
// publishes results back into the slots. Losers spin on their slot.
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

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/dstruct/hashtable"
	"flit/internal/pmem"
)

// Slot protocol states. Four states, not three: the combiner must mark a
// slot claimed while executing so later sweeps of the same window do not
// re-serve it, and may publish done only AFTER the window's single fence
// — done is the owner's durability acknowledgment.
const (
	slotEmpty uint32 = iota
	// slotAnnounced: owner has published ops/n/res and waits.
	slotAnnounced
	// slotClaimed: the combiner has executed (or is executing) the slot
	// within the current window; results are written but NOT yet durable.
	slotClaimed
	// slotDone: window fenced; results in res are durable. Owner resets
	// the slot to slotEmpty after copying them out.
	slotDone
)

// combinePad keeps each slot's spin word on its own cache line (64-byte
// lines; the state word is 4 bytes).
const combinePad = 60

// cslot is one session's announcement slot at one shard's combiner. The
// owner writes ops/n/res-capacity, then releases them with the
// state.Store(slotAnnounced); the combiner acquires via state.Load, so
// the non-atomic fields never race.
type cslot struct {
	state atomic.Uint32
	_     [combinePad]byte
	n     int
	ops   []hashedOp
	res   []Result
}

// announce publishes the slot's prepared ops to the combiner.
//
//flit:hotpath
func (sl *cslot) announce() { sl.state.Store(slotAnnounced) }

// combiner is one shard's flat combiner: the combining lock, the slot
// registry, and the execution state the lock holder uses (a dedicated
// pmem thread, a deferred policy wrapper, one hashtable handle — the
// shard equivalent of a Batched session).
type combiner struct {
	st *Store
	// window is the target operation count per combined window: the
	// combiner keeps sweeping the slots until it has executed at least
	// this many operations or the shard goes idle, then fences once.
	window     int
	noCoalesce bool

	lock  atomic.Uint32
	slots atomic.Pointer[[]*cslot]
	regMu sync.Mutex // serializes copy-on-write slot registration

	t  *pmem.Thread
	d  *core.Deferred
	ht *hashtable.Thread

	// Net-delta state, live only within a window: pending[h] is the
	// accumulated OpAdd delta not yet applied to the table; dkeys keeps
	// insertion order so flushDeltas is deterministic.
	pending map[uint64]uint64
	dkeys   []uint64

	// served collects the slots executed in the current window, to flip
	// to slotDone after the fence.
	served []*cslot
}

// initCombiners builds one combiner per shard at the first use of a
// Combined session. Each combiner owns its execution resources outright;
// they are exercised only under its lock.
func (s *Store) initCombiners() {
	if s.combCrashed.Load() {
		panic(pmem.ErrCrashed)
	}
	s.combOnce.Do(func() {
		s.combiners = make([]*combiner, len(s.tables))
		for i, sh := range s.tables {
			t := s.mem.RegisterThread()
			ar := s.heap.NewArena()
			d := core.NewDeferred(s.policy)
			c := &combiner{
				st:         s,
				window:     s.opts.CombineWindow,
				noCoalesce: s.opts.CombineNoCoalesce,
				t:          t,
				d:          d,
				ht:         sh.Open(dstruct.ThreadOpts{T: t, Arena: ar, Policy: d}),
				pending:    make(map[uint64]uint64),
			}
			empty := make([]*cslot, 0)
			c.slots.Store(&empty)
			s.combiners[i] = c
		}
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

// applyCombined groups the hashed op vector by shard, announces each
// group to its shard's combiner, waits for every window to commit, and
// gathers results back into res in vector order.
//
//flit:hotpath
func (c *sessionCore) applyCombined(ops []hashedOp, res []Result) {
	st := c.st
	if st.combCrashed.Load() {
		// The simulated process already crashed (a combiner hit its crash
		// countdown); every thread of the process dies with it.
		panic(pmem.ErrCrashed)
	}
	c.touched = c.touched[:0]
	for i := range ops {
		sh := shardIdx(ops[i].h, len(st.combiners))
		sl := c.slots[sh]
		if len(c.idxs[sh]) == 0 {
			sl.ops = sl.ops[:0]
			c.touched = append(c.touched, sh)
		}
		sl.ops = append(sl.ops, ops[i])
		c.idxs[sh] = append(c.idxs[sh], i)
	}
	for _, sh := range c.touched {
		sl := c.slots[sh]
		sl.n = len(sl.ops)
		if cap(sl.res) < sl.n {
			sl.res = make([]Result, sl.n)
		} else {
			sl.res = sl.res[:sl.n]
		}
		sl.announce()
	}
	for _, sh := range c.touched {
		st.combiners[sh].await(c.slots[sh])
	}
	for _, sh := range c.touched {
		sl := c.slots[sh]
		for j, idx := range c.idxs[sh] {
			res[idx] = sl.res[j]
		}
		c.idxs[sh] = c.idxs[sh][:0]
		sl.state.Store(slotEmpty)
	}
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
		if c.st.combCrashed.Load() {
			// Whole-process crash model: the combiner died mid-window, so
			// this thread dies too. The lock is never released — the shard
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

// maxIdleSweeps bounds combiner lingering: after this many consecutive
// empty sweeps (each preceded by a yield, so announcers on the same P
// get to publish) the combiner closes the window even if it is short.
const maxIdleSweeps = 4

// run executes one combined window under the combiner lock: sweep the
// slot registry, execute announced slots through the deferred skeleton,
// linger while more work arrives (up to the window target), then commit
// everything under one fence and publish done. A crash countdown firing
// mid-window panics through run with the lock held and the sticky
// combCrashed flag set, killing the whole simulated process.
func (c *combiner) run() {
	defer func() {
		if r := recover(); r != nil {
			c.st.combCrashed.Store(true)
			panic(r)
		}
	}()
	executed, idle := 0, 0
	c.served = c.served[:0]
	for executed < c.window && idle < maxIdleSweeps {
		slots := *c.slots.Load()
		found := 0
		for _, sl := range slots {
			if sl.state.Load() != slotAnnounced {
				continue
			}
			sl.state.Store(slotClaimed)
			c.execSlot(sl)
			c.served = append(c.served, sl)
			found += sl.n
		}
		if found == 0 {
			idle++
			runtime.Gosched()
			continue
		}
		idle = 0
		executed += found
	}
	if len(c.served) == 0 {
		return
	}
	c.flushDeltas()
	// THE fence: one Flush persists the whole window (each dirty line
	// drained once via the coalescing write-back queue) and releases the
	// deferred flit-tags; a window that left nothing pending needs none.
	// Only now are the window's results durable.
	c.d.Flush(c.t)
	for _, sl := range c.served {
		sl.state.Store(slotDone)
	}
}

// execSlot applies one announced slot's ops through the combiner's
// deferred handle, writing results into the slot. OpAdd traffic is
// diverted into the net-delta accumulator (unless noCoalesce); every
// other op settles any pending delta on its key first, so results always
// reflect vector order per key, and then runs through the sessions' op
// switch (exec).
//
//flit:hotpath
func (c *combiner) execSlot(sl *cslot) {
	for j := 0; j < sl.n; j++ {
		op := &sl.ops[j]
		if op.kind == OpAdd && !c.noCoalesce {
			c.noteDelta(op.h, op.val)
			sl.res[j] = Result{}
			continue
		}
		c.settleDelta(op.h)
		sl.res[j] = exec(c.ht, op.kind, op.h, op.val)
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
	c.ht.Add(h, d)
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
		if d == 0 && c.ht.Contains(h) {
			continue
		}
		c.ht.Add(h, d)
	}
	c.dkeys = c.dkeys[:0]
}
