package core

import (
	"flit/internal/pmem"
	"flit/internal/reclaim"
)

// Deferred is Algorithm 4 written once: the shared-store skeleton —
// dependency fence, tag, apply, flush, fence, untag — of every
// flush-based policy, with its trailing persistence obligations closed at
// a commit. The P-V Interface asks only that an operation's p-stores be
// persistent by its operation_completion(), so a commit may close one
// instruction, one operation or many:
//
//   - a raw policy (NewFliT, NewPlain, NewIzraelevitz) commits after
//     every instruction, exactly as the paper states Algorithm 4 and its
//     baselines: an applied p-store or p-RMW flushes, fences and untags
//     before it returns, and Complete is the commit's fence;
//   - a window of one (Commit) ends every operation of the store's Direct
//     sessions: the operation's completion fence, always issued, then the
//     release of the tags the operation holds;
//   - a group commit (Flush) ends a Batched session's batch, a combiner's
//     window or a server pipeline batch: one fence (none, if nothing is
//     pending) before any of the window's operations is acknowledged.
//
// What a window defers, and why it stays durably linearizable:
//
//   - FliT: a p-store, p-CAS, p-FAA or p-Exchange tags its flit-counter,
//     applies and flushes, but neither fences nor untags; the commit
//     fences once and then releases every tag held by the window. Until
//     then the location reads as tagged, so a concurrent p-load (any
//     thread, any session) flushes it and persists it under its own
//     completion — exactly the tag protocol's contract. Nothing an
//     acknowledged operation observed can be lost: its own effects drain
//     at its window's commit before the ack, and foreign pending stores
//     it read were flushed by its own tagged loads.
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
// drains before its unlink — except where a crash that keeps the unlink
// without the mark cannot bring the node back, and the two share the
// commit fence (CASUnfenced). The unlink's trailing fence used to carry a
// second ordering — the node's unreachability persists before the node
// is reused — which belongs to the allocator, not to the write: the
// window holds it by retiring at its commit (Retire), after the fence.
//
// A window's flush elides its PWB instruction when the target line is
// already pending on the thread's write-back queue (pwbOnce): the queue
// coalesces repeated flushes of a line into one drain regardless, so the
// second clwb is pure cost — a dedup hardware cannot perform (it cannot
// see the software flush window) but a software write-back tracker gets
// for free. This is where group commit wins PWBs, not just fences. A raw
// policy issues every flush, as the paper counts them.
//
// A window carries per-window state (the held tags and retirees) and
// must not be shared between goroutines; wrap one per session with
// NewDeferred. A raw policy holds nothing — its tags are released before
// the instruction returns and its retirees go straight to the handle — so
// one is shared by every thread of a structure. The flit-counter tables
// are shared by a raw policy and every window over it. Commit or Flush
// must be called before a window's results are exposed; the store's
// sessions, its combiner among them, own that discipline.
type Deferred struct {
	name string
	// inner is the policy a window over link-and-persist or no-persist
	// (or any other policy) passes its instructions to; nil in the FliT
	// and flush families, whose instructions are implemented here.
	inner Policy
	c     CounterScheme // the flit-counters; nil outside the FliT family
	kind  family
	// window is false for a raw policy, which commits after every
	// instruction.
	window bool
	// eager is Izraelevitz's rule for a raw policy: a p-load, or a failed
	// p-CAS, fences its flush on the spot instead of leaving the fence to
	// the next shared store or completion.
	eager bool

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

// family is how a policy tells a reader that a location may hold an
// unpersisted store.
type family int

const (
	// flitFamily tags pending p-stores in flit-counters (FliT).
	flitFamily family = iota
	// flushFamily has no tags: every p-load flushes (Plain, Izraelevitz).
	flushFamily
	// dirtyFamily steals a dirty bit from the word and keeps its stores'
	// fences (link-and-persist): a window defers only completion.
	dirtyFamily
	// noneFamily persists nothing (no-persist and unknown policies): a
	// window passes everything through and its commits do nothing.
	noneFamily
)

// NewDeferred opens a commit window over p. Every known policy is
// supported; policies with nothing to defer (no-persist) degrade to a
// transparent pass-through whose Commit and Flush do nothing.
func NewDeferred(p Policy) *Deferred {
	d := &Deferred{name: p.Name() + "+gc", inner: p, kind: noneFamily, window: true}
	switch r := p.(type) {
	case *Deferred:
		d.inner, d.c, d.kind = r.inner, r.c, r.kind
	case LinkAndPersist:
		d.kind = dirtyFamily
	}
	return d
}

// Counters returns the flit-counters p tags its pending p-stores with, or
// nil when p is not a FliT policy (raw or window).
func Counters(p Policy) CounterScheme {
	if d, ok := p.(*Deferred); ok {
		return d.c
	}
	return nil
}

// Window returns p as a commit window, or nil when p commits after every
// instruction (a raw policy) or is not a Deferred at all.
func Window(p Policy) *Deferred {
	if d, ok := p.(*Deferred); ok && d.window {
		return d
	}
	return nil
}

// Name returns the policy's name; a window's carries a "+gc" (group
// commit) suffix.
func (d *Deferred) Name() string { return d.name }

// SupportsRMW reports false only for link-and-persist.
func (d *Deferred) SupportsRMW() bool { return d.inner == nil || d.inner.SupportsRMW() }

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
// re-enqueues after any intervening drain) and every flush obligation its
// p-loads and failed p-CASes picked up — so an empty queue means a fence
// issued now would order nothing: a batch of Gets that saw no tag acks
// without one. Held tags are still released: with the queue empty, their
// lines were drained by an earlier fence of this batch (a private
// p-store's; an RMW's leading fence releases them on the spot). The
// batch's retirees are handed over last (retire).
//
// A window whose thread a crash killed does not commit: Flush panics
// pmem.ErrCrashed whether or not anything is pending, so it drains
// nothing, its tags stay held and its retirees leak. A stale tag only
// makes readers flush (Lemma 5.1); releasing it over an undrained line
// would let a reader acknowledge a value that never persists.
//
//flit:hotpath
func (d *Deferred) Flush(t *pmem.Thread) int {
	if d.kind == noneFamily {
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

// Commit ends an operation at its operation_completion() — a Direct
// session's window of one, and every operation of a raw policy (Complete):
// the completion fence, always issued, persists the operation's deferred
// stores and RMWs and every flush obligation its loads picked up, then
// the operation's tags are released and its retirees handed over. Unlike
// Flush it does not skip an empty fence: whether the completion fence of
// an operation that left nothing pending may be dropped is a decision of
// its own, made here once for every flush-based policy, raw or window —
// not a side effect of the window. On a thread a crash killed the fence
// panics, as in Flush.
//
//flit:hotpath
func (d *Deferred) Commit(t *pmem.Thread) {
	if d.kind == noneFamily {
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
// Algorithm 4's flush-fence-untag ordering requires. Only FliT policies
// hold tags.
//
//flit:hotpath
func (d *Deferred) releaseTags(t *pmem.Thread) {
	for _, a := range d.tags {
		d.c.Dec(t, a)
	}
	d.tags = d.tags[:0]
}

// Retire takes a block that an unlink made unreachable. In a window the
// unlink's trailing fence is the commit, so the block may not begin its
// grace period before that fence: it is queued and handed to h at Commit
// or Flush (retire). A raw policy's unlink fenced before it returned, and
// link-and-persist's CASes and the pass-through persist (or never do)
// before they return, so their blocks go straight to h.
//
//flit:hotpath
func (d *Deferred) Retire(h *reclaim.Handle, p pmem.Addr, n int) {
	if !d.window || d.kind >= dirtyFamily {
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

// observed discharges the flush obligation of a p-load, or of a failed
// p-CAS, that may have read an unpersisted value. A window's flush is
// deduplicated against its queue and fenced by its commit — the line
// drains, with its final contents, before any of the window's responses
// escape. A raw policy flushes every time, with the fence left to the next
// shared store or completion; Izraelevitz fences on the spot.
//
//flit:hotpath
func (d *Deferred) observed(t *pmem.Thread, a pmem.Addr) {
	if d.window {
		pwbOnce(t, a)
		return
	}
	t.PWB(a)
	if d.eager {
		t.PFence()
	}
}

// applied is the epilogue of an applied p-store or p-RMW (tagged, under
// FliT). A raw policy commits it at once: flush, fence — the new value is
// persisted before untagging — and untag. A window flushes the line once
// and holds the tag until its next fence.
//
//flit:hotpath
func (d *Deferred) applied(t *pmem.Thread, a pmem.Addr) {
	if !d.window {
		t.PWB(a)
		t.PFence()
		if d.c != nil {
			d.c.Dec(t, a)
		}
		return
	}
	pwbOnce(t, a)
	if d.c != nil {
		d.tags = append(d.tags, a)
	}
}

// leadingFence is the leading fence of a shared RMW, and of a raw
// policy's shared store: the conditional dependency fence (fenceDeps),
// after which the thread's queue is empty either way. Every tag a window
// holds was flushed by the window and has drained since — at this fence,
// or at an earlier one (a private p-store's) if the fence was elided — so
// the tags are released on the spot: holding them longer would only make
// readers re-flush durable lines.
//
//flit:hotpath
func (d *Deferred) leadingFence(t *pmem.Thread) {
	fenceDeps(t)
	if len(d.tags) != 0 {
		d.releaseTags(t)
	}
}

// Load is Algorithm 4's shared-load: a FliT p-load flushes its location
// only while it is tagged, a flush-family p-load always (observed).
//
//flit:hotpath
func (d *Deferred) Load(t *pmem.Thread, a pmem.Addr, pflag bool) uint64 {
	switch d.kind {
	case flitFamily:
		t.CheckCrash()
		v := t.Load(a)
		if pflag && d.c.Tagged(t, a) {
			d.observed(t, a)
		}
		return v
	case flushFamily:
		t.CheckCrash()
		v := t.Load(a)
		if pflag {
			d.observed(t, a)
		}
		return v
	default:
		return d.inner.Load(t, a, pflag)
	}
}

// Store is Algorithm 4's shared-store for a plain write. A raw policy
// leads it with the dependency fence; a window elides that fence with the
// trailing one: a plain store publishes nothing in the structures (fresh
// node fields, in-place value overwrites), and every pointer-publishing
// RMW still fences ahead of itself.
//
//flit:hotpath
func (d *Deferred) Store(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) {
	switch d.kind {
	case flitFamily:
		t.CheckCrash()
		if !d.window {
			fenceDeps(t)
		}
		if !pflag {
			t.Store(a, v)
			return
		}
		d.c.Inc(t, a)
		t.Store(a, v)
		d.applied(t, a)
	case flushFamily:
		t.CheckCrash()
		if !d.window {
			fenceDeps(t)
		}
		t.Store(a, v)
		if pflag {
			d.applied(t, a)
		}
	default:
		d.inner.Store(t, a, v, pflag)
	}
}

// CAS is Algorithm 4's shared-store for compare-and-swap: the leading
// fence, then the p-CAS itself (cas). Link-and-persist's dirty-bit CAS
// keeps its own fences.
//
//flit:hotpath
func (d *Deferred) CAS(t *pmem.Thread, a pmem.Addr, old, new uint64, pflag bool) bool {
	if d.kind >= dirtyFamily {
		return d.inner.CAS(t, a, old, new, pflag)
	}
	t.CheckCrash()
	d.leadingFence(t)
	return d.cas(t, a, old, new, pflag)
}

// CASUnfenced is a window's p-CAS without its leading fence: the write
// joins whatever the window has pending and persists with it at the next
// fence, the commit's at the latest. Nothing is drained, so no held tag is
// released either — a mark the operation applied before stays tagged
// until that fence. It is for a write whose dependencies a caller has
// shown to be durable already, or to be harmless if a crash keeps this
// write without them: a Delete's own unlink, which may persist ahead of
// its mark only where the way into its predecessor cannot be lost
// (dstruct.Ctx.UnlinkOwn). Only a window may use it; a raw policy's queue
// is drained by the time it could.
//
//flit:hotpath
func (d *Deferred) CASUnfenced(t *pmem.Thread, a pmem.Addr, old, new uint64) bool {
	if d.kind >= dirtyFamily {
		return d.inner.CAS(t, a, old, new, P)
	}
	t.CheckCrash()
	return d.cas(t, a, old, new, P)
}

// cas is a CAS after its leading fence: a successful p-CAS tags, applies
// and persists (applied). A failed p-CAS wrote nothing, but it observed
// the current value and the thread may act on that observation (a queue
// skipping a taken node, a helper seeing a mark), so it carries a
// p-load's obligation (observed): flush if another p-store is still
// pending — under Plain and Izraelevitz, always. Without it an operation
// can complete depending on a value a crash then loses — the hole the
// dlcheck enumerator catches on the durable queue.
//
//flit:hotpath
func (d *Deferred) cas(t *pmem.Thread, a pmem.Addr, old, new uint64, pflag bool) bool {
	if d.kind == flushFamily {
		ok := t.CAS(a, old, new)
		if pflag {
			if ok {
				d.applied(t, a)
			} else {
				d.observed(t, a)
			}
		}
		return ok
	}
	if !pflag {
		return t.CAS(a, old, new)
	}
	d.c.Inc(t, a)
	if t.CAS(a, old, new) {
		d.applied(t, a)
		return true
	}
	d.c.Dec(t, a)
	if d.c.Tagged(t, a) {
		d.observed(t, a)
	}
	return false
}

// FAA is Algorithm 4's shared-store for fetch-and-add, persisted as CAS.
//
//flit:hotpath
func (d *Deferred) FAA(t *pmem.Thread, a pmem.Addr, delta uint64, pflag bool) uint64 {
	switch d.kind {
	case flitFamily:
		t.CheckCrash()
		d.leadingFence(t)
		if !pflag {
			return t.FAA(a, delta)
		}
		d.c.Inc(t, a)
		prev := t.FAA(a, delta)
		d.applied(t, a)
		return prev
	case flushFamily:
		t.CheckCrash()
		d.leadingFence(t)
		prev := t.FAA(a, delta)
		if pflag {
			d.applied(t, a)
		}
		return prev
	default:
		return d.inner.FAA(t, a, delta, pflag)
	}
}

// Exchange is Algorithm 4's shared-store for swap, persisted as CAS.
//
//flit:hotpath
func (d *Deferred) Exchange(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) uint64 {
	switch d.kind {
	case flitFamily:
		t.CheckCrash()
		d.leadingFence(t)
		if !pflag {
			return t.Exchange(a, v)
		}
		d.c.Inc(t, a)
		prev := t.Exchange(a, v)
		d.applied(t, a)
		return prev
	case flushFamily:
		t.CheckCrash()
		d.leadingFence(t)
		prev := t.Exchange(a, v)
		if pflag {
			d.applied(t, a)
		}
		return prev
	default:
		return d.inner.Exchange(t, a, v, pflag)
	}
}

// LoadPrivate is Algorithm 4's private-load: no tag check and no flush —
// a private location has no pending p-store by another thread.
//
//flit:hotpath
func (d *Deferred) LoadPrivate(t *pmem.Thread, a pmem.Addr, pflag bool) uint64 {
	if d.inner != nil {
		return d.inner.LoadPrivate(t, a, pflag)
	}
	t.CheckCrash()
	return t.Load(a)
}

// StorePrivate is Algorithm 4's private-store: no counter, no leading
// fence; a p-store still flushes and fences before returning, in a window
// too — the optimized modes' private stores are volatile (their
// persistence rides PersistObject), and a private p-store's immediate
// fence is rare enough not to batch.
//
//flit:hotpath
func (d *Deferred) StorePrivate(t *pmem.Thread, a pmem.Addr, v uint64, pflag bool) {
	if d.inner != nil {
		d.inner.StorePrivate(t, a, v, pflag)
		return
	}
	t.CheckCrash()
	t.Store(a, v)
	if pflag {
		t.PWB(a)
		t.PFence()
	}
}

// PersistObject flushes the object's lines without fencing: they drain at
// the next fence — the publishing CAS's leading fence, as always.
//
//flit:hotpath
func (d *Deferred) PersistObject(t *pmem.Thread, base pmem.Addr, n int) {
	if d.inner != nil {
		d.inner.PersistObject(t, base, n)
		return
	}
	t.CheckCrash()
	persistObject(t, base, n)
}

// Complete is operation_completion(). A raw policy commits: its fence
// persists every dependency of the finished operation. A window defers
// the fence to its commit: the window boundary is where the operation's
// response escapes, so that is where its dependencies must be persistent
// — not earlier.
//
//flit:hotpath
func (d *Deferred) Complete(t *pmem.Thread) {
	if d.kind == noneFamily {
		d.inner.Complete(t)
		return
	}
	t.CheckCrash()
	if !d.window {
		d.Commit(t)
	}
}
