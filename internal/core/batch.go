package core

import (
	"flit/internal/pmem"
	"flit/internal/reclaim"
)

// Deferred is the commit-window skeleton over the closure-free policies:
// a Policy whose shared p-stores, p-RMWs and operation completions leave
// their *trailing* persistence obligations open until the window commits.
// The P-V Interface asks only that an operation's p-stores be persistent
// by its operation_completion(), so a window may hold one operation or
// many:
//
//   - a window of one (Commit) ends every operation of the store's Direct
//     sessions: the operation's completion fence, always issued, then the
//     release of the tags the operation holds;
//   - a group commit (Flush) ends a Batched session's batch, a combiner's
//     window or a server pipeline batch: one fence (none, if nothing is
//     pending) before any of the window's operations is acknowledged.
//
// What is deferred, and why it stays durably linearizable:
//
//   - FliT (Algorithm 4): a p-store, p-CAS, p-FAA or p-Exchange tags its
//     flit-counter, applies and flushes, but neither fences nor untags;
//     the commit fences once and then releases every tag held by the
//     window. Until then the location reads as tagged, so a concurrent
//     p-load (any thread, any session) flushes it and persists it under
//     its own completion — exactly the tag protocol's contract. Nothing
//     an acknowledged operation observed can be lost: its own effects
//     drain at its window's commit before the ack, and foreign pending
//     stores it read were flushed by its own tagged loads.
//   - Plain / Izraelevitz: no tags — every p-load already flushes its
//     location unconditionally, which is the same reader-side guarantee
//     made stronger; deferring the store-side and load-side fences to
//     the commit keeps ack ⇒ persisted.
//   - Link-and-persist: every store is a dirty-bit CAS and keeps its own
//     fences (the dirty bit may only be cleared once the value is
//     durable); only the operation-completion fence — covering load-side
//     dirty flushes — moves to the commit.
//
// Only the trailing fences move. An RMW's leading fence (fenceDeps) stays
// where Algorithm 4 puts it, because it orders one write before another:
// a fresh node's contents drain before the link that publishes it can
// enter the write-back queue (otherwise line coalescing could persist the
// link ahead of the contents in a crash prefix), and a Delete's mark
// drains before its unlink. The unlink's trailing fence used to carry a
// second ordering — the node's unreachability persists before the node
// is reused — which belongs to the allocator, not to the write: the
// window holds it by retiring at its commit (Retire), after the fence.
//
// A deferred p-store also elides its PWB instruction when the target
// line is already pending on the thread's write-back queue
// (pmem.Thread.LinePending): the queue coalesces repeated flushes of a
// line into one drain regardless, so the second clwb is pure cost — a
// dedup hardware cannot perform (it cannot see the software flush
// window) but a software write-back tracker gets for free. This is where
// group commit wins PWBs, not just fences: consecutive same-line stores
// in one batch (hot zipfian keys, the 3 field stores of a fresh node)
// flush once.
//
// A Deferred instance carries per-window state (the held tags and
// retirees) and must not be shared between goroutines; wrap one per
// session. The wrapped policy's shared state (flit-counter tables) is
// unchanged and remains shared with every other session. Commit or Flush
// must be called before the window's results are exposed; the store's
// sessions, its combiner among them, own that discipline.
type Deferred struct {
	inner Policy
	c     CounterScheme // the FliT policy's flit-counters; nil iff inner is not FliT
	kind  deferKind

	// tags are the addresses whose flit-counters this window has
	// incremented and not yet released (one entry per deferred p-store or
	// p-RMW; duplicates balance because counters count).
	tags []pmem.Addr

	// retirees are the blocks this window's unlinks made unreachable,
	// held until the commit fence persists the unlinks (Retire).
	retirees []retiree
}

// retiree is one block waiting for its window's commit.
type retiree struct {
	h *reclaim.Handle
	p pmem.Addr
	n int
}

type deferKind int

const (
	// deferFlit defers untag+fence of shared p-stores and p-RMWs and the
	// completion fence (FliT policies).
	deferFlit deferKind = iota
	// deferFlush defers store-side, RMW-side and load-side fences (Plain,
	// Izraelevitz: readers flush unconditionally, so no tags exist).
	deferFlush
	// deferComplete defers only the operation-completion fence
	// (link-and-persist: stores are CASes and stay fully persisted).
	deferComplete
	// deferNone passes everything through (no-persist and unknown
	// policies; Commit and Flush are no-ops — there is nothing to commit).
	deferNone
)

// NewDeferred wraps p in the commit-window skeleton. Every known policy
// is supported; policies with nothing to defer (no-persist) degrade to a
// transparent pass-through whose Commit and Flush do nothing.
func NewDeferred(p Policy) *Deferred {
	d := &Deferred{inner: p}
	switch ip := p.(type) {
	case *FliT:
		d.c, d.kind = ip.C, deferFlit
	case Plain, Izraelevitz:
		d.kind = deferFlush
	case LinkAndPersist:
		d.kind = deferComplete
	default:
		d.kind = deferNone
	}
	return d
}

// Name returns the wrapped policy's name with a "+gc" (group commit)
// suffix.
func (d *Deferred) Name() string { return d.inner.Name() + "+gc" }

// SupportsRMW defers to the wrapped policy.
func (d *Deferred) SupportsRMW() bool { return d.inner.SupportsRMW() }

// Flush is the group commit: one fence drains every line the batch
// flushed (each distinct line exactly once — the coalescing queue), then
// the batch's flit-tags are released. It returns the number of lines
// drained. After Flush returns, every operation executed since the
// previous Flush is persistent and may be acknowledged.
//
// The fence is conditional, by fenceDeps' argument: it is issued only
// when the thread has write-backs in flight, and otherwise counted as
// elided. Everything the batch must persist before its acks sits on this
// thread's queue — its deferred stores' and RMWs' lines (pwbOnce
// re-enqueues after any intervening drain) and every flush obligation its p-loads and
// failed p-CASes picked up — so an empty queue means a fence issued now
// would order nothing: a batch of Gets that saw no tag acks without one.
// Held tags are still released: with the queue empty, their lines were
// drained by an earlier fence of this batch (a private p-store's; an
// RMW's leading fence releases them on the spot). The batch's retirees
// are handed over last (retire).
//
// A window whose thread a crash killed does not commit: Flush panics
// pmem.ErrCrashed whether or not anything is pending, so it drains
// nothing, its tags stay held and its retirees leak. A stale tag only
// makes readers flush (Lemma 5.1); releasing it over an undrained line
// would let a reader acknowledge a value that never persists.
//
//flit:hotpath
func (d *Deferred) Flush(t *pmem.Thread) int {
	if d.kind == deferNone {
		return 0
	}
	if t.Crashed() {
		panic(pmem.ErrCrashed)
	}
	n := 0
	if t.Pending() == 0 {
		t.Stats.ElidedFences++
	} else {
		n = t.Drain()
	}
	if len(d.tags) != 0 {
		d.releaseTags(t)
	}
	if len(d.retirees) != 0 {
		d.retire()
	}
	return n
}

// Commit ends a window of one operation — a Direct session's op — at its
// operation_completion(): the completion fence, always issued, persists
// the operation's deferred stores and RMWs and every flush obligation its
// loads picked up, then the operation's tags are released and its
// retirees handed over. Unlike Flush it does not skip an empty fence:
// whether the completion fence of an operation that left nothing pending
// may be dropped is a decision of its own (the per-op completion fence of
// every policy, FliT.Complete included), not a side effect of the window.
// On a thread a crash killed the fence panics, as in Flush.
//
//flit:hotpath
func (d *Deferred) Commit(t *pmem.Thread) {
	if d.kind == deferNone {
		return
	}
	t.PFence() // the operation's completion fence: always issued
	if len(d.tags) != 0 {
		d.releaseTags(t)
	}
	if len(d.retirees) != 0 {
		d.retire()
	}
}

// releaseTags untags every location the window's deferred p-stores and
// p-RMWs hold, strictly after the fence that persisted them: a reader
// observing a tag up to this point flushes the value itself, as
// Algorithm 4's persistTagged ordering requires. Only FliT policies hold
// tags.
//
//flit:hotpath
func (d *Deferred) releaseTags(t *pmem.Thread) {
	for _, a := range d.tags {
		d.c.Dec(t, a)
	}
	d.tags = d.tags[:0]
}

// Retire takes a block that an unlink of this window made unreachable.
// The unlink's trailing fence is the window's commit, so the block may not
// begin its grace period before that fence: it is queued and handed to h
// at Commit or Flush (retire). Link-and-persist's CASes and the
// pass-through persist before they return, and their blocks go straight
// to h.
//
//flit:hotpath
func (d *Deferred) Retire(h *reclaim.Handle, p pmem.Addr, n int) {
	if d.kind == deferComplete || d.kind == deferNone {
		h.Retire(p, n)
		return
	}
	d.retirees = append(d.retirees, retiree{h, p, n})
}

// retire hands the window's retirees to their reclamation handles, after
// the commit fence persisted the unlinks that retired them. A window whose
// thread a crash killed never gets here — its commit fence panics — so
// its blocks leak, as under libvmmalloc, rather than reach a free list
// while a recovered image can still point at them.
//
//flit:hotpath
func (d *Deferred) retire() {
	for _, r := range d.retirees {
		r.h.Retire(r.p, r.n)
	}
	d.retirees = d.retirees[:0]
}

// pwbOnce flushes a's line unless it is already pending on the queue.
//
//flit:hotpath
func pwbOnce(t *pmem.Thread, a pmem.Addr) {
	if !t.LinePending(a) {
		t.PWB(a)
	}
}

// Load is the wrapped policy's shared-load with the window dedup: a flush
// obligation against a line this window already holds pending is elided —
// the line drains, with its final contents, at this window's commit
// before any of its responses escape.
//
//flit:hotpath
func (d *Deferred) Load(t *pmem.Thread, a pmem.Addr, pflag bool) uint64 {
	switch d.kind {
	case deferFlit:
		t.CheckCrash()
		v := t.Load(a)
		if pflag && d.c.Tagged(t, a) {
			pwbOnce(t, a)
		}
		return v
	case deferFlush:
		t.CheckCrash()
		v := t.Load(a)
		if pflag {
			// Plain flushes with the fence deferred to completion;
			// Izraelevitz fences immediately. In a window both defer
			// the fence to the commit — the window boundary is the
			// completion the construction's fence was buying.
			pwbOnce(t, a)
		}
		return v
	default:
		return d.inner.Load(t, a, pflag)
	}
}

// Store applies a shared store whose trailing persistence is deferred to
// the window's commit. Under FliT the location stays tagged until then, so
// concurrent readers carry the flush obligation exactly as for any
// in-flight p-store; under Plain/Izraelevitz readers flush
// unconditionally. The leading dependency fence is elided with the
// trailing one: a plain store publishes nothing in the structures (fresh
// node fields, in-place value overwrites), and every pointer-publishing
// RMW still fences ahead of itself.
//
//flit:hotpath
func (d *Deferred) Store(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) {
	switch d.kind {
	case deferFlit:
		t.CheckCrash()
		if !pflag {
			t.Store(a, v)
			return
		}
		d.c.Inc(t, a)
		t.Store(a, v)
		d.hold(t, a)
	case deferFlush:
		t.CheckCrash()
		t.Store(a, v)
		if pflag {
			pwbOnce(t, a)
		}
	default:
		d.inner.Store(t, a, v, pflag)
	}
}

// hold is the deferred epilogue of an applied, tagged FliT p-store or
// p-RMW: flush the line once and keep the tag until the window's next
// fence.
//
//flit:hotpath
func (d *Deferred) hold(t *pmem.Thread, a pmem.Addr) {
	pwbOnce(t, a)
	d.tags = append(d.tags, a)
}

// leadingFence is an RMW's leading fence inside the window: the policies'
// conditional dependency fence (fenceDeps), after which the thread's
// queue is empty either way. Every held tag's value was flushed by this
// window and has drained since — at this fence, or at an earlier one
// (a private p-store's) if the fence was elided — so the tags are
// released on the spot: holding them longer would only make readers
// re-flush durable lines.
//
//flit:hotpath
func (d *Deferred) leadingFence(t *pmem.Thread) {
	fenceDeps(t)
	if len(d.tags) != 0 {
		d.releaseTags(t)
	}
}

// CAS is Algorithm 4's shared-store for compare-and-swap with its
// trailing persistence deferred like Store's: the leading fence stays
// (leadingFence), and a successful p-CAS tags, applies and flushes,
// holding its tag until the window's commit. A failed p-CAS wrote nothing but
// observed the current value, so it keeps a p-load's obligation (see
// FliT.CAS): flush if another p-store is still pending — under Plain and
// Izraelevitz, always — with the fence at the commit. Link-and-persist's
// dirty-bit CAS keeps its own fences.
//
//flit:hotpath
func (d *Deferred) CAS(t *pmem.Thread, a pmem.Addr, old, new uint64, pflag bool) bool {
	switch d.kind {
	case deferFlit:
		t.CheckCrash()
		d.leadingFence(t)
		if !pflag {
			return t.CAS(a, old, new)
		}
		d.c.Inc(t, a)
		if t.CAS(a, old, new) {
			d.hold(t, a)
			return true
		}
		d.c.Dec(t, a)
		if d.c.Tagged(t, a) {
			pwbOnce(t, a)
		}
		return false
	case deferFlush:
		t.CheckCrash()
		d.leadingFence(t)
		ok := t.CAS(a, old, new)
		if pflag {
			pwbOnce(t, a)
		}
		return ok
	default:
		return d.inner.CAS(t, a, old, new, pflag)
	}
}

// FAA is Algorithm 4's shared-store for fetch-and-add, deferred as CAS.
//
//flit:hotpath
func (d *Deferred) FAA(t *pmem.Thread, a pmem.Addr, delta uint64, pflag bool) uint64 {
	switch d.kind {
	case deferFlit:
		t.CheckCrash()
		d.leadingFence(t)
		if !pflag {
			return t.FAA(a, delta)
		}
		d.c.Inc(t, a)
		prev := t.FAA(a, delta)
		d.hold(t, a)
		return prev
	case deferFlush:
		t.CheckCrash()
		d.leadingFence(t)
		prev := t.FAA(a, delta)
		if pflag {
			pwbOnce(t, a)
		}
		return prev
	default:
		return d.inner.FAA(t, a, delta, pflag)
	}
}

// Exchange is Algorithm 4's shared-store for swap, deferred as CAS.
//
//flit:hotpath
func (d *Deferred) Exchange(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) uint64 {
	switch d.kind {
	case deferFlit:
		t.CheckCrash()
		d.leadingFence(t)
		if !pflag {
			return t.Exchange(a, v)
		}
		d.c.Inc(t, a)
		prev := t.Exchange(a, v)
		d.hold(t, a)
		return prev
	case deferFlush:
		t.CheckCrash()
		d.leadingFence(t)
		prev := t.Exchange(a, v)
		if pflag {
			pwbOnce(t, a)
		}
		return prev
	default:
		return d.inner.Exchange(t, a, v, pflag)
	}
}

// LoadPrivate delegates: private loads never flush.
//
//flit:hotpath
func (d *Deferred) LoadPrivate(t *pmem.Thread, a pmem.Addr, pflag bool) uint64 {
	return d.inner.LoadPrivate(t, a, pflag)
}

// StorePrivate delegates: the optimized modes' private stores are
// volatile (their persistence rides PersistObject), and a private
// p-store's immediate fence is rare enough not to batch.
//
//flit:hotpath
func (d *Deferred) StorePrivate(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) {
	d.inner.StorePrivate(t, a, v, pflag)
}

// PersistObject delegates: its flushes land on the same queue and drain
// at the next fence — the publishing CAS's leading fence, as always.
//
//flit:hotpath
func (d *Deferred) PersistObject(t *pmem.Thread, base pmem.Addr, n int) {
	d.inner.PersistObject(t, base, n)
}

// Complete defers the operation-completion fence to the window's commit:
// the window boundary is where the operation's response escapes, so that
// is where its dependencies must be persistent — not earlier.
//
//flit:hotpath
func (d *Deferred) Complete(t *pmem.Thread) {
	if d.kind == deferNone {
		d.inner.Complete(t)
		return
	}
	t.CheckCrash()
}
