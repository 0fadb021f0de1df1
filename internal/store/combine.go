// Store-wide flat combining: the store's one commit pipeline.
//
// Concurrent writers — embedded Combined sessions and the server's
// connections alike — have no common owner for a commit window, and each
// fencing per op is the per-op durability cost flat combining targets.
// Sessions ANNOUNCE operations into a slot; one winner takes the
// combiner lock, executes every announced slot through the combiner's
// own Batched session, commits the window under ONE fence, and only then
// publishes results. Losers spin on their slot; a session that finds the
// lock free serves itself first and announces nothing. The lock holder
// also accounts for the window (WindowStats).
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

	"flit/internal/metrics"
	"flit/internal/pmem"
)

// Slot protocol states. Claimed keeps later sweeps of a window from
// re-serving a slot; done, published only AFTER the window's fence, is
// the owner's durability acknowledgment.
const (
	slotEmpty     uint32 = iota
	slotAnnounced        // the owner has published ops/res and waits
	slotClaimed          // executed in the open window: results not yet durable
	slotDone             // fenced: res is durable, unless fault is set; the owner resets it to empty
)

// combinePad keeps each slot's spin word on its own cache line (64-byte
// lines; the state word is 4 bytes).
const combinePad = 60

// cslot is one Combined session's announcement slot. Its non-atomic
// fields are handed over by the state word: the owner's store of
// slotAnnounced and the combiner's store of slotDone release them.
type cslot struct {
	state atomic.Uint32
	_     [combinePad]byte
	ops   []HashedOp
	res   []Result
	fault any // the panic one of ops raised, handed back to the owner
}

// combiner is the store's flat combiner: the combining lock, the slot
// registry, and x, the Batched session the lock holder executes and
// commits every window through.
type combiner struct {
	_    [64]byte
	lock atomic.Uint32 // on its own line: waiters poll it
	_    [combinePad]byte

	x     *sessionCore
	slots atomic.Pointer[[]*cslot]
	regMu sync.Mutex // serializes copy-on-write slot registration

	// Net-delta state, live only within a window: pending[h] is the
	// accumulated OpAdd delta not yet applied to the table; dkeys keeps
	// insertion order so flushDeltas is deterministic.
	pending map[uint64]uint64
	dkeys   []uint64

	// The window in progress, and total, the account of every window so
	// far; only the lock holder touches them.
	own      *cslot   // the lock taker's slot, served first, never announced
	served   []*cslot // flipped to slotDone after the fence (all but own)
	cur      *cslot   // the slot executing
	settling bool     // a pending net delta is being applied
	acked    int      // ops of the slots served whole
	base     pmem.Stats
	total    WindowStats
}

// WindowStats is the combiner's account of every window so far: the
// window's owner folds in its thread's deltas since window start after
// each commit, so a pmem.Memory.ResetStats between windows cannot make a
// delta underflow.
type WindowStats struct {
	Windows, Drained      uint64 // commit windows, lines their commits drained
	PWBs, PFences, Elided uint64 // Elided: fences found empty and not issued (pmem.Stats.ElidedFences)
}

// WindowStats reads the combiner's account under its lock. A crashed
// store's lock is never released; its account, written before the crash
// flag, is final and is read as it stands.
func (s *Store) WindowStats() WindowStats {
	c := s.comb.Load()
	if c == nil {
		return WindowStats{}
	}
	locked := false
	for !locked && !s.combCrashed.Load() {
		if locked = c.lock.CompareAndSwap(0, 1); !locked {
			runtime.Gosched()
		}
	}
	ws := c.total
	if locked {
		c.lock.Store(0)
	}
	return ws
}

// CombinedSessions returns the number of open Combined sessions: the
// slots every commit window sweeps.
func (s *Store) CombinedSessions() int {
	if c := s.comb.Load(); c != nil {
		return len(*c.slots.Load())
	}
	return 0
}

// windowHists are the distributions of ops and of fences per window.
type windowHists struct{ ops, fences metrics.Hist }

// WindowHists returns the distributions of ops and of fences per commit
// window, which the combiner records, with no clock read, from the first
// call on: a store nobody observes so carries neither 16 KiB nor adds.
func (s *Store) WindowHists() (ops, fences *metrics.Hist) {
	s.histOnce.Do(func() {
		h := &windowHists{}
		h.ops.Init()
		h.fences.Init()
		s.hist.Store(h)
	})
	h := s.hist.Load()
	return &h.ops, &h.fences
}

// openCombiner returns the store's combiner, building it at the first use
// of a Combined session; its Batched session runs only under its lock. It
// panics pmem.ErrCrashed once the combiner crashed: the process is dead.
func (s *Store) openCombiner() *combiner {
	if s.combCrashed.Load() {
		panic(pmem.ErrCrashed)
	}
	s.combOnce.Do(func() {
		c := &combiner{x: newSessionCore(s, Batched), pending: make(map[uint64]uint64)}
		empty := make([]*cslot, 0)
		c.slots.Store(&empty)
		s.comb.Store(c)
	})
	return s.comb.Load()
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

// applyCombined puts the hashed op vector and its result vector in the
// session's slot and returns once the window that executed it has
// committed: run by this session if it finds the lock free, else awaited.
// A panic one of the ops raised is re-raised here, in the owner.
//
//flit:hotpath
func (c *sessionCore) applyCombined(ops []HashedOp, res []Result) {
	sl, comb := c.slot, c.st.comb.Load()
	sl.ops, sl.res = ops, res
	if comb.lock.CompareAndSwap(0, 1) {
		comb.run(sl)
		comb.lock.Store(0)
	} else {
		sl.state.Store(slotAnnounced)
		comb.await(sl)
		sl.state.Store(slotEmpty)
	}
	if fault := sl.fault; fault != nil {
		sl.fault = nil
		panic(fault)
	}
}

// await blocks until sl reaches slotDone, yielding, and volunteers as
// combiner whenever the lock is free: the volunteer's first sweep serves
// its own announced slot. Once the combiner crashed, every announcer
// dies with it.
func (c *combiner) await(sl *cslot) {
	for {
		if sl.state.Load() == slotDone {
			return
		}
		if c.x.st.combCrashed.Load() {
			// The combiner died mid-window, so this thread dies too; the
			// lock stays held, the store frozen as a dead process's.
			panic(pmem.ErrCrashed)
		}
		if c.lock.Load() == 0 && c.lock.CompareAndSwap(0, 1) {
			c.run(nil)
			c.lock.Store(0)
			continue
		}
		runtime.Gosched()
	}
}

// combineWindow is the target operation count per combined window: the
// combiner sweeps until it has executed this many or a sweep finds none.
const combineWindow = 32

// run executes one combined window under the combiner lock: serve own,
// then sweep and execute announced slots until the window holds
// combineWindow ops or a sweep finds none, then commit under one fence,
// account and publish done. Nobody waiting: the window closes at once.
//
// A crash countdown firing mid-window is a process crash: it panics
// through run with the lock held and combCrashed set. Any other panic is
// the raising slot's, for its owner to re-raise; the window goes on and
// commits (that slot's executed ops are unacknowledged: a legal crash
// point). A panic while applying a net delta, which sums Adds of slots
// already served, fails every slot of the window so far.
func (c *combiner) run(own *cslot) {
	c.base = c.x.t.Stats
	c.own, c.served, c.acked = own, c.served[:0], 0
	for fault := c.try(c.window); fault != nil; fault = c.try(c.window) {
		if c.cur != nil {
			c.cur.fault = fault
			c.served = append(c.served, c.cur)
			if !c.settling {
				continue // one of cur's own ops panicked
			}
		}
		// Applying a net delta panicked: every slot served so far fails,
		// and what is left of the deltas is dropped, never acknowledged.
		c.settling = false
		clear(c.pending)
		c.dkeys, c.acked = c.dkeys[:0], 0
		for _, sl := range c.served {
			sl.fault = fault
		}
	}
}

// window is run's body: sweep, settle the net deltas, commit, account
// for the window and publish done.
func (c *combiner) window() {
	c.sweep()
	if len(c.served) == 0 {
		return
	}
	c.flushDeltas()
	// THE fence: the commit drains each dirty line once and releases the
	// flit-tags (no fence if nothing is pending). Only now are results durable.
	c.account(c.x.commit())
	for _, sl := range c.served {
		if sl != c.own { // own's owner is the lock holder, already here
			sl.state.Store(slotDone)
		}
	}
}

// try runs f and returns what it panicked with. A pmem crash, the whole
// process's, goes on panicking with the lock held and the store crashed.
func (c *combiner) try(f func()) (fault any) {
	defer func() {
		if fault = recover(); fault == pmem.ErrCrashed {
			c.x.st.combCrashed.Store(true)
			panic(fault)
		}
	}()
	f()
	return nil
}

// sweep is run's collection loop; own is served first of all.
func (c *combiner) sweep() {
	if c.own != nil && len(c.served) == 0 {
		c.serve(c.own)
	}
	for c.acked < combineWindow {
		before := c.acked
		for _, sl := range *c.slots.Load() {
			if sl.state.Load() == slotAnnounced {
				sl.state.Store(slotClaimed)
				c.serve(sl)
			}
		}
		if c.acked == before {
			break
		}
	}
	c.cur = nil
}

// serve executes one slot in the window.
func (c *combiner) serve(sl *cslot) {
	c.cur = sl
	c.execSlot(sl)
	c.served = append(c.served, sl)
	c.acked += len(sl.ops)
}

// account folds the window's deltas since c.base into total and the hists.
func (c *combiner) account(drained int) {
	ts, base, t := &c.x.t.Stats, &c.base, &c.total
	fences := ts.PFences - base.PFences
	t.Windows++
	t.Drained += uint64(drained)
	t.PWBs += ts.PWBs - base.PWBs
	t.PFences += fences
	t.Elided += ts.ElidedFences - base.ElidedFences
	if h := c.x.st.hist.Load(); h != nil {
		h.ops.RecordNs(int64(c.acked))
		h.fences.RecordNs(int64(fences))
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

// execSlot runs one slot's ops, writing results into the slot. OpAdd
// traffic goes to the net-delta accumulator; every other op first settles
// any pending delta on its key, so results reflect vector order per key.
//
//flit:hotpath
func (c *combiner) execSlot(sl *cslot) {
	for j := range sl.ops {
		op := &sl.ops[j]
		if op.Kind == OpAdd {
			c.noteDelta(op.H, op.Val)
			sl.res[j] = Result{}
			continue
		}
		c.settleDelta(op.H)
		sl.res[j] = c.exec(op.Kind, op.H, op.Val)
	}
}

// noteDelta folds an OpAdd into the window's pending net deltas.
//
//flit:hotpath
func (c *combiner) noteDelta(h, delta uint64) {
	if _, ok := c.pending[h]; !ok {
		c.dkeys = append(c.dkeys, h)
	}
	c.pending[h] += delta
}

// settleDelta applies the pending net delta on h, if any, before a
// non-Add operation on h observes the table: a Delete after a pending Add
// on an absent key must find the key present.
//
//flit:hotpath
func (c *combiner) settleDelta(h uint64) {
	d, ok := c.pending[h]
	if !ok {
		return
	}
	delete(c.pending, h)
	c.settling = true
	c.exec(OpAdd, h, d)
	c.settling = false
}

// flushDeltas commits the window's surviving net deltas, one store per
// key. A net-zero delta on an already-present key needs no write at all
// — the VSA win for self-cancelling traffic — but on an absent key even
// net zero must insert (Add's insert-if-absent semantics are part of
// every announced op's contract).
//
//flit:hotpath
func (c *combiner) flushDeltas() {
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
