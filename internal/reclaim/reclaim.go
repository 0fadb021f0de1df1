// Package reclaim provides epoch-based memory reclamation (EBR) for the
// lock-free data structures, standing in for the ssmem epoch allocator the
// paper's artifact uses. Without it, immediate reuse of freed nodes would
// let concurrent traversals chase re-initialized memory — an ABA hazard the
// simulation would hit just like native code.
//
// The scheme is Fraser-style 3-bucket EBR: threads announce the global
// epoch on entering an operation and announce quiescence on leaving; a
// block retired in epoch e is recycled only once the global epoch reaches
// e+2, by which time every thread that could have held a reference has
// left its critical section.
//
// Handles have a full lifecycle: Close deregisters a handle so a churn of
// short-lived sessions does not grow the domain forever, moving its
// not-yet-safe retirees to a domain-level orphan list that surviving
// handles scavenge as the epoch advances. An orphan rule covers handles
// whose owner died by crash injection mid-operation: a pinned announcement
// whose owning pmem.Thread reports Crashed() is adopted during epoch
// advancement instead of wedging the epoch (and with it every handle's
// bags) forever.
package reclaim

import (
	"sync"
	"sync/atomic"

	"flit/internal/pheap"
	"flit/internal/pmem"
)

// quiescent marks a thread that is not inside an operation.
const quiescent = ^uint64(0)

// advancePeriod is how many retirements a handle buffers between attempts
// to advance the global epoch.
const advancePeriod = 64

// slot is a cache-line padded epoch announcement.
type slot struct {
	announce atomic.Uint64
	_        [7]uint64 // pad to a cache line to avoid false sharing
}

// Domain is a reclamation domain shared by all threads operating on one
// data structure instance.
type Domain struct {
	epoch atomic.Uint64

	mu      sync.Mutex
	handles []*Handle
	// orphans holds retirees confiscated from closed or crashed handles,
	// each stamped with its retirement epoch; they are freed by whichever
	// handle advances the epoch past their grace period.
	orphans []orphanBag
}

// orphanBag is one closed handle's bucket awaiting its grace period.
type orphanBag struct {
	epoch  uint64
	blocks []retired
}

// NewDomain creates an empty reclamation domain.
func NewDomain() *Domain { return &Domain{} }

type retired struct {
	p pmem.Addr
	n int
}

// Handle is a thread-private attachment to a Domain. Each worker goroutine
// must own its own Handle.
type Handle struct {
	d     *Domain
	s     *slot
	arena *pheap.Arena

	// owner, when non-nil, is the pmem thread whose crash-injection death
	// permits the orphan rule to adopt this handle (see tryAdvance).
	owner *pmem.Thread

	bags     [3][]retired
	bagEpoch [3]uint64
	sinceAdv int

	closed bool // guarded by d.mu

	// unsafeImmediate bypasses the grace period — mutation-testing tooth
	// only, never set in real code paths (see SetUnsafeImmediateFree).
	unsafeImmediate bool
}

// NewHandleOwned registers a thread with the domain; freed blocks are
// returned to arena once safe. A non-nil owner arms the orphan rule: if
// the owner dies by crash injection while the handle is pinned, epoch
// advancement adopts the handle instead of stalling on its announcement
// forever. A nil owner (unit tests) never arms it.
func (d *Domain) NewHandleOwned(arena *pheap.Arena, owner *pmem.Thread) *Handle {
	h := &Handle{d: d, s: &slot{}, arena: arena, owner: owner}
	h.s.announce.Store(quiescent)
	d.mu.Lock()
	d.handles = append(d.handles, h)
	d.mu.Unlock()
	return h
}

// Enter pins the current epoch; call at the start of every data structure
// operation, paired with Exit.
func (h *Handle) Enter() {
	h.s.announce.Store(h.d.epoch.Load())
}

// Exit announces quiescence; the thread must hold no references to shared
// nodes after this point.
func (h *Handle) Exit() {
	h.s.announce.Store(quiescent)
}

// Retire schedules the n-word block at p for reuse once no concurrent
// operation can still reference it.
func (h *Handle) Retire(p pmem.Addr, n int) {
	if h.unsafeImmediate {
		h.arena.Free(p, n)
		return
	}
	e := h.d.epoch.Load()
	idx := e % 3
	if h.bagEpoch[idx] != e {
		// The bucket belongs to an epoch ≥ 3 behind; its blocks are safe.
		h.drain(idx)
		h.bagEpoch[idx] = e
	}
	h.bags[idx] = append(h.bags[idx], retired{p, n})
	h.sinceAdv++
	if h.sinceAdv >= advancePeriod {
		h.sinceAdv = 0
		h.tryAdvance()
	}
}

// drain returns every block in bucket idx to the arena.
func (h *Handle) drain(idx uint64) {
	for _, r := range h.bags[idx] {
		h.arena.Free(r.p, r.n)
	}
	h.bags[idx] = h.bags[idx][:0]
}

// Close deregisters the handle: its announcement no longer participates
// in epoch advancement and retirees still inside their grace period move
// to the domain's orphan list for a surviving handle to free later.
// Already-safe orphans are returned to this handle's arena on the way
// out. Close is idempotent; the handle must not be used afterwards.
//
// Close also attempts up to two epoch advances. Retire only advances the
// epoch every advancePeriod retirements, so a domain whose sessions each
// retire fewer blocks than that would otherwise never advance at all —
// every short-lived session would park its grace bags on the orphan list
// forever, and a connection churn would grow the heap without bound on
// exactly the low-traffic shards. Closing is a natural quiescent point:
// if no surviving handle is pinned behind the epoch, two advances age
// this handle's own bags past their grace period so they free here and
// now rather than waiting for retire volume that may never come.
func (h *Handle) Close() {
	d := h.d
	d.mu.Lock()
	h.closeLocked()
	for i := 0; i < 2 && d.advanceLocked(); i++ {
	}
	d.scavengeLocked(h.arena)
	d.mu.Unlock()
}

// closeLocked does the deregistration under d.mu: void the announcement,
// unlink from the handle list, and orphan the non-empty bags.
func (h *Handle) closeLocked() {
	if h.closed {
		return
	}
	h.closed = true
	h.s.announce.Store(quiescent)
	d := h.d
	for i, o := range d.handles {
		if o == h {
			d.handles = append(d.handles[:i], d.handles[i+1:]...)
			break
		}
	}
	for i := range h.bags {
		if len(h.bags[i]) == 0 {
			continue
		}
		d.orphans = append(d.orphans, orphanBag{
			epoch:  h.bagEpoch[i],
			blocks: h.bags[i],
		})
		h.bags[i] = nil
	}
}

// scavengeLocked frees every orphan bag whose grace period has elapsed
// (global epoch ≥ retirement epoch + 2) into ar.
func (d *Domain) scavengeLocked(ar *pheap.Arena) {
	if len(d.orphans) == 0 {
		return
	}
	e := d.epoch.Load()
	kept := d.orphans[:0]
	for _, o := range d.orphans {
		if e >= o.epoch+2 {
			for _, r := range o.blocks {
				ar.Free(r.p, r.n)
			}
		} else {
			kept = append(kept, o)
		}
	}
	d.orphans = kept
}

// advanceLocked bumps the global epoch if every registered handle is
// quiescent or has caught up to it. A handle pinned behind the epoch
// whose owning pmem thread died by crash injection is adopted here — its
// goroutine has unwound, so its announcement is void and its bags are
// confiscated as orphans — which is what keeps one crashed session from
// pinning the epoch (and every other handle's bags) forever. Caller
// holds d.mu.
func (d *Domain) advanceLocked() bool {
	e := d.epoch.Load()
	for i := 0; i < len(d.handles); i++ {
		o := d.handles[i]
		a := o.s.announce.Load()
		if a == quiescent || a == e {
			continue
		}
		if o.owner != nil && o.owner.Crashed() {
			o.closeLocked() // removes d.handles[i]
			i--
			continue
		}
		return false // a live straggler pins epoch e-1 or e
	}
	return d.epoch.CompareAndSwap(e, e+1)
}

// tryAdvance bumps the global epoch if every non-quiescent handle has
// caught up to it, then frees this handle's now-safe bucket and any
// orphan bags past their grace period.
func (h *Handle) tryAdvance() {
	d := h.d
	d.mu.Lock()
	advanced := d.advanceLocked()
	if advanced {
		d.scavengeLocked(h.arena)
	}
	d.mu.Unlock()
	if advanced {
		ne := d.epoch.Load()
		idx := ne % 3
		if h.bagEpoch[idx] != ne && len(h.bags[idx]) > 0 {
			h.drain(idx)
			h.bagEpoch[idx] = ne
		}
	}
}

// Flush force-drains all buckets. Only call when no other thread is inside
// an operation (e.g. test teardown).
func (h *Handle) Flush() {
	for i := uint64(0); i < 3; i++ {
		h.drain(i)
	}
}

// SetUnsafeImmediateFree makes Retire free blocks immediately, with no
// grace period — deliberately UNSAFE. It exists only as the mutation
// tooth for the ABA battery: with it enabled, a concurrent reader must
// observe a poisoned/recycled node, proving the battery detects exactly
// the bug reclamation prevents. Never enable it outside that test.
func (h *Handle) SetUnsafeImmediateFree(on bool) { h.unsafeImmediate = on }

// Domain returns the domain this handle is attached to (diagnostics).
func (h *Handle) Domain() *Domain { return h.d }

// Epoch returns the domain's current global epoch (diagnostics).
func (d *Domain) Epoch() uint64 { return d.epoch.Load() }

// NumHandles returns the number of registered (unclosed) handles
// (diagnostics: leak tests watch it stay bounded under session churn).
func (d *Domain) NumHandles() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.handles)
}

// OrphanBlocks returns the number of retired blocks currently parked on
// the orphan list (diagnostics).
func (d *Domain) OrphanBlocks() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, o := range d.orphans {
		n += len(o.blocks)
	}
	return n
}
