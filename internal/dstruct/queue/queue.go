// Package queue implements a durable Michael–Scott queue in the style of
// Friedman et al. [PPoPP'18], the example the FliT paper uses (§4) for
// variables that never need the persist<> treatment: the head and tail
// pointers are plain volatile words, while node contents and links are
// p-instructions. After a crash, head and tail are rediscovered by
// scanning from a persisted anchor; dequeues persist a per-node taken
// mark, so completed dequeues never resurrect.
//
// Like the Friedman queue (and the paper's artifact), dequeued nodes are
// not reclaimed: the anchor-to-head prefix must remain walkable for
// recovery. Suitable for the queue-shaped workloads the paper motivates;
// compaction is an orthogonal concern.
package queue

import (
	"sync/atomic"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/pmem"
)

// Node field indices (times stride): value, next link, taken mark.
const (
	fVal   = 0
	fNext  = 1
	fTaken = 2
	// NumFields is the number of persisted fields per node.
	NumFields = 3
)

// Queue is a durable lock-free FIFO queue.
type Queue struct {
	cfg dstruct.Config
	// head and tail are *volatile*: the paper's example (§4) of state
	// that never needs persist<> because recovery reconstructs it. They
	// live in plain Go memory, exactly as the C++ version keeps them
	// outside the persist<> template.
	head atomic.Uint64 // node whose next is the first live element
	tail atomic.Uint64 // last known node
}

// New creates an empty queue anchored at cfg's root slot: a persisted
// sentinel node the recovery scan starts from.
func New(cfg dstruct.Config) *Queue {
	fields := [NumFields]uint64{fTaken: 1} // the sentinel counts as taken
	sentinel := cfg.Anchor(fields[:]...)
	q := &Queue{cfg: cfg}
	q.head.Store(uint64(sentinel))
	q.tail.Store(uint64(sentinel))
	return q
}

// Thread is a per-goroutine handle to the queue.
type Thread struct {
	q *Queue
	c dstruct.Ctx
}

// NewThread creates a per-goroutine handle. Dequeued nodes are never
// reclaimed, so it has no reclamation slot.
func (q *Queue) NewThread() *Thread {
	return &Thread{q: q, c: q.cfg.Open(nil, dstruct.ThreadOpts{})}
}

// Close releases the handle; see dstruct.Ctx.Close.
func (t *Thread) Close() { t.c.Close() }

// Ctx exposes the thread's execution context (stats, crash injection).
func (t *Thread) Ctx() *dstruct.Ctx { return &t.c }

// volatile head/tail accesses: raw instructions, as the paper prescribes
// for variables that never need persistence. We use atomic loads/CAS on
// the Go-side fields via a tiny spinless protocol.

// Enqueue appends v (must fit the word payload). The linking p-CAS is the
// linearization point; the value is persisted before the instruction
// returns, so an acknowledged enqueue always survives.
func (t *Thread) Enqueue(v uint64) {
	if v&^core.PayloadMask != 0 {
		panic("queue: value out of payload range")
	}
	c := &t.c
	pol := c.Policy
	node := c.Ar.Alloc(c.Words(NumFields))
	c.InitPrivate(node, v, 0, 0)
	for {
		tail := t.loadTail()
		nextAddr := c.Field(tail, fNext)
		next := dstruct.Ptr(pol.Load(c.T, nextAddr, core.V))
		if next != pmem.NilAddr {
			// Help the lagging tail — but the volatile tail is what later
			// enqueuers link behind without re-reading how it got there, so
			// it may only move past a durable link: flush the link if its
			// p-CAS is still pending, and fence, before publishing.
			pol.Load(c.T, nextAddr, core.P)
			pol.Complete(c.T)
			t.casTail(tail, next)
			continue
		}
		// The link is the durable hand-off: p-CAS flushes and fences.
		if pol.CAS(c.T, nextAddr, 0, uint64(node), core.P) {
			t.casTail(tail, node)
			pol.Complete(c.T)
			return
		}
	}
}

// Dequeue removes and returns the oldest element. The taken-mark p-CAS is
// the linearization point: a completed dequeue is durable, so the element
// cannot resurrect after a crash.
func (t *Thread) Dequeue() (uint64, bool) {
	c := &t.c
	pol := c.Policy
	for {
		head := t.loadHead()
		next := dstruct.Ptr(pol.Load(c.T, c.Field(head, fNext), core.P))
		if next == pmem.NilAddr {
			pol.Complete(c.T)
			return 0, false
		}
		v := pol.Load(c.T, c.Field(next, fVal), core.V) // immutable, persisted at init
		if pol.CAS(c.T, c.Field(next, fTaken), 0, 1, core.P) {
			t.casHead(head, next) // volatile cleanup; recovery tolerates lag
			pol.Complete(c.T)
			return v, true
		}
		// Someone else took it; advance head past the taken node and retry.
		// The volatile head is what later dequeuers trust instead of
		// re-reading marks, so it may only move past a durable mark: fence
		// the flush the failed p-CAS left pending (the taker may still be
		// inside its own) before publishing the advance.
		pol.Complete(c.T)
		t.casHead(head, next)
	}
}

// The head/tail words are Go-side volatile state guarded by atomics on
// the Queue struct. Helpers keep the call sites tidy.

func (t *Thread) loadHead() pmem.Addr { return pmem.Addr(t.q.head.Load()) }
func (t *Thread) loadTail() pmem.Addr { return pmem.Addr(t.q.tail.Load()) }
func (t *Thread) casHead(old, new pmem.Addr) bool {
	return t.q.head.CompareAndSwap(uint64(old), uint64(new))
}
func (t *Thread) casTail(old, new pmem.Addr) bool {
	return t.q.tail.CompareAndSwap(uint64(old), uint64(new))
}

// Snapshot returns the live (un-taken) values in FIFO order (test helper;
// callers quiescent).
func (q *Queue) Snapshot() []uint64 {
	mem := q.cfg.Heap.Mem()
	var out []uint64
	n := dstruct.Ptr(mem.VolatileWord(q.cfg.Root()))
	for n != pmem.NilAddr {
		if mem.VolatileWord(q.cfg.Field(n, fTaken)) == 0 {
			out = append(out, mem.VolatileWord(q.cfg.Field(n, fVal)))
		}
		n = dstruct.Ptr(mem.VolatileWord(q.cfg.Field(n, fNext)))
	}
	return out
}

// Recover rebuilds the queue from the persisted anchor: the chain is
// walked from the sentinel, nodes whose taken mark persisted are skipped,
// and head/tail are re-established. The surviving structure is reused
// in place — nothing is copied, exactly as the Friedman recovery does.
func Recover(cfg dstruct.Config) *Queue {
	mem := cfg.Heap.Mem()
	sentinel := dstruct.Ptr(mem.VolatileWord(cfg.Root()))
	q := &Queue{cfg: cfg}
	q.head.Store(uint64(sentinel))
	q.tail.Store(uint64(sentinel))
	// head: last taken node before the first live one (or the last node);
	// tail: the final node of the chain. A torn link past the last
	// *persisted* link simply ends the scan — those enqueues were pending.
	n := sentinel
	seen := map[pmem.Addr]bool{}
	for {
		next := dstruct.Ptr(mem.VolatileWord(cfg.Field(n, fNext)))
		if next == pmem.NilAddr || seen[next] {
			break
		}
		seen[next] = true
		if mem.VolatileWord(cfg.Field(next, fTaken)) != 0 && q.head.Load() == uint64(n) {
			q.head.Store(uint64(next)) // still in the fully-taken prefix
		}
		n = next
	}
	q.tail.Store(uint64(n))
	return q
}
