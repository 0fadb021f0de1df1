package core

import "flit/internal/pmem"

// Deferred is the commit-window skeleton over the closure-free policies:
// a Policy whose shared p-stores and operation completions leave their
// *trailing* persistence obligations open until the window commits. The
// P-V Interface asks only that an operation's p-stores be persistent by
// its operation_completion(), so a window may hold one operation or many:
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
//   - FliT (Algorithm 4): a p-store tags its flit-counter, applies and
//     flushes, but neither fences nor untags; the commit fences once and
//     then releases every tag held by the window. Until then the
//     location reads as tagged, so a concurrent p-load (any thread, any
//     session) flushes it and persists it under its own completion —
//     exactly the tag protocol's contract. Nothing an acknowledged
//     operation observed can be lost: its own effects drain at its
//     window's commit before the ack, and foreign pending stores it read
//     were flushed by its own tagged loads.
//   - Plain / Izraelevitz: no tags — every p-load already flushes its
//     location unconditionally, which is the same reader-side guarantee
//     made stronger; deferring the store-side and load-side fences to
//     the commit keeps ack ⇒ persisted.
//   - Link-and-persist: every store is a dirty-bit CAS and is left fully
//     persisted (CASes are never deferred, see below); only the
//     operation-completion fence — covering load-side dirty flushes —
//     moves to the commit.
//
// What is NOT deferred: CAS, FAA and Exchange delegate to the wrapped
// policy untouched. They are the pointer-publishing instructions of the
// structures (a list insert's link, a delete's mark and unlink), and two
// of their fences carry crash-image ordering a window must not relax:
// the leading fence drains a fresh node's contents before the link that
// publishes it can enter the write-back queue (otherwise line coalescing
// could persist the link ahead of the contents in a crash prefix), and
// the unlink's trailing fence persists unreachability before the node is
// retired for reuse. Deferred stores therefore cover exactly the
// non-publishing writes — fresh-node field initialization and in-place
// value overwrites — whose early or late persistence is independently
// consistent.
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
// A Deferred instance carries per-window state (the held tags) and must
// not be shared between goroutines; wrap one per session. The wrapped
// policy's shared state (flit-counter tables) is unchanged and remains
// shared with every other session. Commit or Flush must be called before
// the window's results are exposed; the store's sessions and combiners
// own that discipline.
type Deferred struct {
	inner Policy
	c     CounterScheme // the FliT policy's flit-counters; nil iff inner is not FliT
	kind  deferKind

	// tags are the addresses whose flit-counters this window has
	// incremented and not yet released (one entry per deferred p-store;
	// duplicates balance because counters count).
	tags []pmem.Addr
}

type deferKind int

const (
	// deferFlit defers untag+fence of shared p-stores and the completion
	// fence (FliT policies).
	deferFlit deferKind = iota
	// deferFlush defers store-side and load-side fences (Plain,
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
// thread's queue — its deferred stores' lines (pwbOnce re-enqueues after
// any intervening drain) and every flush obligation its p-loads and
// failed p-CASes picked up — so an empty queue means a fence issued now
// would order nothing: a batch of Gets that saw no tag acks without one.
// Held tags are still released: with the queue empty, their lines were
// drained by an earlier fence of this batch (a private p-store's; a
// delegated RMW's fence releases them on the spot).
//
//flit:hotpath
func (d *Deferred) Flush(t *pmem.Thread) int {
	if d.kind == deferNone {
		return 0
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
	return n
}

// Commit ends a window of one operation — a Direct session's op — at its
// operation_completion(): the completion fence, always issued, persists
// the operation's deferred stores and every flush obligation its loads
// picked up, then the operation's tags are released. Unlike Flush it does
// not skip an empty fence: whether the completion fence of an operation
// that left nothing pending may be dropped is a decision of its own
// (the per-op completion fence of every policy, FliT.Complete included),
// not a side effect of the window.
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
}

// releaseTags untags every location the window's deferred p-stores hold,
// strictly after the fence that persisted them: a reader observing a tag
// up to this point flushes the value itself, as Algorithm 4's
// persistTagged ordering requires. Only FliT policies hold tags.
//
//flit:hotpath
func (d *Deferred) releaseTags(t *pmem.Thread) {
	for _, a := range d.tags {
		d.c.Dec(t, a)
	}
	d.tags = d.tags[:0]
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
// trailing one: the window's deferred stores are non-publishing writes
// (see the type comment), and every pointer-publishing CAS still fences
// ahead of itself.
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
		pwbOnce(t, a)
		d.tags = append(d.tags, a)
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

// releaseTagsIfFenced releases every held tag when a delegated
// instruction issued a fence. Any fence on this thread drains the whole
// write-back queue, and every deferred store keeps its latest value
// pending (pwbOnce re-enqueues after each intervening drain), so a
// fence leaves every deferred store persisted — holding its tag longer
// would only make readers re-flush already-durable lines.
//
// "Issued a fence" is read off the Stats.PFences delta, which an elided
// dependency fence (fenceDeps) does not move — correctly: a fence that
// was not issued persisted nothing. The delegated instruction's leading
// fence is elided only when nothing is pending, and held tags have their
// lines pending (Store's pwbOnce) unless a private p-store's fence drained
// them in between, so a window with deferred stores sees the fence and
// releases here even when the CAS fails. In the drained case the stores
// are already durable and their tags simply wait for the next fence or
// commit. batch_test.go pins both ends.
//
//flit:hotpath
func (d *Deferred) releaseTagsIfFenced(t *pmem.Thread, fencesBefore uint64) {
	if t.Stats.PFences != fencesBefore && len(d.tags) != 0 {
		d.releaseTags(t)
	}
}

// CAS delegates untouched: publishing instructions keep their leading
// and trailing fences (see the type comment for why a window must not
// relax them). Their fences persist the window's deferred stores as a
// side effect, so the held tags are released on the spot.
//
//flit:hotpath
func (d *Deferred) CAS(t *pmem.Thread, a pmem.Addr, old, new uint64, pflag bool) bool {
	if d.c == nil {
		return d.inner.CAS(t, a, old, new, pflag)
	}
	before := t.Stats.PFences
	ok := d.inner.CAS(t, a, old, new, pflag)
	d.releaseTagsIfFenced(t, before)
	return ok
}

// FAA delegates untouched (tag release as for CAS).
//
//flit:hotpath
func (d *Deferred) FAA(t *pmem.Thread, a pmem.Addr, delta uint64, pflag bool) uint64 {
	if d.c == nil {
		return d.inner.FAA(t, a, delta, pflag)
	}
	before := t.Stats.PFences
	prev := d.inner.FAA(t, a, delta, pflag)
	d.releaseTagsIfFenced(t, before)
	return prev
}

// Exchange delegates untouched (tag release as for CAS).
//
//flit:hotpath
func (d *Deferred) Exchange(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) uint64 {
	if d.c == nil {
		return d.inner.Exchange(t, a, v, pflag)
	}
	before := t.Stats.PFences
	prev := d.inner.Exchange(t, a, v, pflag)
	d.releaseTagsIfFenced(t, before)
	return prev
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
