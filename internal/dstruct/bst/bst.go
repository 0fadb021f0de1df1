// Package bst implements the Natarajan–Mittal lock-free external binary
// search tree [PPoPP'14], the paper's second benchmark structure. Keys
// live in leaves; internal nodes route. Deletion is two-phase: injection
// flags the parent→leaf edge, then cleanup tags the sibling edge (freezing
// it) and swings the ancestor's edge to the sibling, removing leaf and
// parent in one CAS.
//
// The NM algorithm uses both spare bits of every child word (flag + tag),
// which is exactly why the paper reports the link-and-persist technique as
// inapplicable to this BST; New rejects that policy.
//
// Durability: the decisive CASes — an insert's link, a delete's flag
// (intent) and swing (linearization + physical removal) — are p-stores in
// every mode. The swing must persist before parent and leaf are retired
// (reuse safety). Manual leaves the tag freeze and all cleanup loads
// volatile: a crash image may carry stale tags and flags, and recovery
// discards both (a flagged leaf belongs to a delete that either completed
// — in which case the persisted swing already detached it — or was still
// pending, which durable linearizability allows to take effect).
package bst

import (
	"sort"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/pmem"
	"flit/internal/reclaim"
)

// Node field indices. Internal nodes use key/left/right; leaves use
// key/value and have nil children.
const (
	fKey   = 0
	fVal   = 1
	fLeft  = 2
	fRight = 3
	// NumFields is the number of persisted fields per node.
	NumFields = 4
)

// Sentinel keys, above every user key (dstruct.KeyMax is the exclusive
// user bound): the NM initialization uses three infinities ∞₀ < ∞₁ < ∞₂.
const (
	inf0 = dstruct.KeyMax     // S's initial left leaf
	inf1 = dstruct.KeyMax + 1 // S sentinel
	inf2 = dstruct.KeyMax + 2 // R sentinel
)

// BST is a durable lock-free external binary search tree.
type BST struct {
	cfg  dstruct.Config
	dom  *reclaim.Domain
	r, s pmem.Addr // immutable sentinel internal nodes
}

// New creates an empty tree anchored at cfg's root slot: sentinels R and S
// with three infinity leaves, persisted, root pointing at R. It rejects
// link-and-persist, whose stolen bit collides with the NM tag bits.
func New(cfg dstruct.Config) *BST {
	if _, lap := cfg.Policy.(core.LinkAndPersist); lap {
		panic("bst: link-and-persist is inapplicable — the NM-BST uses every spare word bit (paper §6.4)")
	}
	c := cfg.Open(nil, dstruct.ThreadOpts{})
	mkNode := func(key uint64, left, right pmem.Addr) pmem.Addr {
		n := c.Ar.Alloc(c.Words(NumFields))
		c.InitPrivate(n, key, 0, uint64(left), uint64(right))
		return n
	}
	l0 := mkNode(inf0, 0, 0)
	l1 := mkNode(inf1, 0, 0)
	l2 := mkNode(inf2, 0, 0)
	s := mkNode(inf1, l0, l1)
	c.Publish(mkNode(inf2, s, l2))
	c.Close()
	return Attach(cfg)
}

// Attach wraps the tree persisted at cfg's root slot; its handles reclaim
// through cfg's domain (dstruct.Config.DomainOrNew).
func Attach(cfg dstruct.Config) *BST {
	mem := cfg.Heap.Mem()
	r := dstruct.Ptr(mem.VolatileWord(cfg.Root()))
	s := dstruct.Ptr(mem.VolatileWord(cfg.Field(r, fLeft)))
	return &BST{cfg: cfg, dom: cfg.DomainOrNew(), r: r, s: s}
}

// Thread is a per-goroutine handle to the tree.
type Thread struct {
	b *BST
	c dstruct.Ctx
}

// NewThread creates a standalone per-goroutine handle — the Set
// interface's spelling of Open(ThreadOpts{}).
func (b *BST) NewThread() dstruct.SetThread { return b.Open(dstruct.ThreadOpts{}) }

// Open creates a per-goroutine handle; see dstruct.ThreadOpts.
func (b *BST) Open(o dstruct.ThreadOpts) *Thread {
	return &Thread{b: b, c: b.cfg.Open(b.dom, o)}
}

// Close releases the handle; see dstruct.Ctx.Close.
func (t *Thread) Close() { t.c.Close() }

// Ctx exposes the thread's execution context (stats, crash injection).
func (t *Thread) Ctx() *dstruct.Ctx { return &t.c }

// cleanupP is the pflag of loads and of the tag CAS inside cleanup: the
// NVtraverse methodology persists the whole critical phase; Manual lets
// recovery repair lost tags.
func (t *Thread) cleanupP() bool { return t.c.Mode != dstruct.Manual }

// childField returns the address of node's child edge toward key.
func (t *Thread) childField(node pmem.Addr, nodeKey, key uint64) pmem.Addr {
	if key < nodeKey {
		return t.c.Field(node, fLeft)
	}
	return t.c.Field(node, fRight)
}

// seekRec is the NM seek record: ancestor's edge to successor is the last
// untagged edge on the path; parent's edge to leaf is the last edge.
type seekRec struct {
	ancestor, successor, parent, leaf pmem.Addr
	leafKey                           uint64
	// parentEdge is the edge word the walk reached parent through. A
	// concurrent Insert replaces a leaf edge with a new internal node, so
	// the link a response rests on may be this one, not parent's own edge
	// to leaf.
	parentEdge pmem.Addr
}

// seek walks from the sentinels to the leaf for key.
func (t *Thread) seek(key uint64) seekRec {
	c := &t.c
	pol := c.Policy
	travP := c.TravP()
	sr := seekRec{ancestor: t.b.r, successor: t.b.s, parent: t.b.s, parentEdge: c.Field(t.b.r, fLeft)}
	leafEdge := c.Field(t.b.s, fLeft) // key < inf1: always left of S
	parentRaw := pol.Load(c.T, leafEdge, travP)
	sr.leaf = dstruct.Ptr(parentRaw)
	sr.leafKey = pol.Load(c.T, c.Field(sr.leaf, fKey), travP)
	curEdge := t.childField(sr.leaf, sr.leafKey, key)
	curRaw := pol.Load(c.T, curEdge, travP)
	for {
		cur := dstruct.Ptr(curRaw)
		if cur == pmem.NilAddr {
			return sr
		}
		if !dstruct.Tagged(parentRaw) {
			sr.ancestor = sr.parent
			sr.successor = sr.leaf
		}
		sr.parent, sr.parentEdge = sr.leaf, leafEdge
		sr.leaf, leafEdge = cur, curEdge
		sr.leafKey = pol.Load(c.T, c.Field(cur, fKey), travP)
		parentRaw = curRaw
		curEdge = t.childField(cur, sr.leafKey, key)
		curRaw = pol.Load(c.T, curEdge, travP)
	}
}

// settle ends the traversal phase of an operation that sought key: it
// locates parent's edge toward key and transitions on the two links a
// response or the next CAS rests on — the edge into parent and that edge
// (see dstruct.Ctx.Transition).
func (t *Thread) settle(sr seekRec, key uint64) (edge pmem.Addr) {
	c := &t.c
	pkey := c.Policy.Load(c.T, c.Field(sr.parent, fKey), c.TravP())
	edge = t.childField(sr.parent, pkey, key)
	c.Transition(sr.parentEdge, edge)
	return edge
}

// Insert adds key→val if absent.
func (t *Thread) Insert(key, val uint64) bool {
	if key >= dstruct.KeyMax {
		panic("bst: key out of range")
	}
	c := &t.c
	pol := c.Policy
	c.H.Enter()
	for {
		sr := t.seek(key)
		edge := t.settle(sr, key)
		if sr.leafKey == key {
			c.Done()
			return false
		}
		newLeaf := c.Ar.Alloc(c.Words(NumFields))
		c.InitNode(newLeaf, key, val, 0, 0)
		newInt := c.Ar.Alloc(c.Words(NumFields))
		if key < sr.leafKey {
			c.InitNode(newInt, sr.leafKey, 0, uint64(newLeaf), uint64(sr.leaf))
		} else {
			c.InitNode(newInt, key, 0, uint64(sr.leaf), uint64(newLeaf))
		}
		if pol.CAS(c.T, edge, uint64(sr.leaf), uint64(newInt), core.P) {
			c.Done()
			return true
		}
		// Never shared: reuse directly.
		c.Ar.Free(newLeaf, c.Words(NumFields))
		c.Ar.Free(newInt, c.Words(NumFields))
		t.helpObstructor(key, sr, edge)
	}
}

// helpObstructor runs the cleanup of the delete whose flag or tag on
// edge made this thread's CAS fail, if that is what happened.
func (t *Thread) helpObstructor(key uint64, sr seekRec, edge pmem.Addr) {
	raw := t.c.Policy.Load(t.c.T, edge, t.c.TravP())
	if dstruct.Ptr(raw) == sr.leaf && (dstruct.Flagged(raw) || dstruct.Tagged(raw)) {
		t.cleanup(key, sr)
	}
}

// Delete removes key if present: flag the parent→leaf edge (injection),
// then cleanup until the leaf is gone.
func (t *Thread) Delete(key uint64) bool {
	c := &t.c
	c.H.Enter()
	injecting := true
	var leaf pmem.Addr
	for {
		sr := t.seek(key)
		if injecting {
			edge := t.settle(sr, key)
			if sr.leafKey != key {
				c.Done()
				return false
			}
			if c.Policy.CAS(c.T, edge, uint64(sr.leaf), uint64(sr.leaf)|core.FlagBit, core.P) {
				injecting = false
				leaf = sr.leaf
				if t.cleanup(key, sr) {
					c.Done()
					return true
				}
			} else {
				t.helpObstructor(key, sr, edge)
			}
		} else if sr.leaf != leaf || t.cleanup(key, sr) {
			// Someone finished our removal, or this cleanup did.
			c.Done()
			return true
		}
	}
}

// cleanup performs the NM removal: freeze the sibling edge with a tag,
// then swing the ancestor's successor edge to the sibling (preserving the
// sibling's flag). Returns whether this thread's swing succeeded; if so it
// retires the removed parent and leaf.
func (t *Thread) cleanup(key uint64, sr seekRec) bool {
	c := &t.c
	pol := c.Policy
	cp := t.cleanupP()
	ak := pol.Load(c.T, c.Field(sr.ancestor, fKey), cp)
	succField := t.childField(sr.ancestor, ak, key)
	pk := pol.Load(c.T, c.Field(sr.parent, fKey), cp)
	childField := t.childField(sr.parent, pk, key)
	siblingField := c.Field(sr.parent, fLeft)
	if childField == siblingField {
		siblingField = c.Field(sr.parent, fRight)
	}
	childRaw := pol.Load(c.T, childField, cp)
	if !dstruct.Flagged(childRaw) {
		// The pending delete targets the other side; keep that side's
		// subtree and remove the (flagged) original sibling.
		siblingField = childField
	}
	// Freeze the kept edge so it cannot change while we splice it up.
	for {
		v := pol.Load(c.T, siblingField, cp)
		if dstruct.Tagged(v) {
			break
		}
		if pol.CAS(c.T, siblingField, v, v|core.TagBit, cp) {
			break
		}
	}
	v := pol.Load(c.T, siblingField, cp)
	kept := uint64(dstruct.Ptr(v)) | (v & core.FlagBit) // untag, keep flag
	// The swing is a p-store in every mode: it makes parent and leaf
	// unreachable, and they are retired for reuse below, once it is
	// persistent (dstruct.Ctx.Retire).
	if !pol.CAS(c.T, succField, uint64(sr.successor), kept, core.P) {
		return false
	}
	removedField := c.Field(sr.parent, fLeft)
	if removedField == siblingField {
		removedField = c.Field(sr.parent, fRight)
	}
	removed := dstruct.Ptr(pol.Load(c.T, removedField, cp))
	c.Retire(sr.parent, c.Words(NumFields))
	if removed != pmem.NilAddr {
		c.Retire(removed, c.Words(NumFields))
	}
	return true
}

// Contains reports whether key is present.
func (t *Thread) Contains(key uint64) bool {
	t.c.H.Enter()
	sr := t.seek(key)
	t.settle(sr, key)
	t.c.Done()
	return sr.leafKey == key
}

// Get returns the value stored under key, if present.
func (t *Thread) Get(key uint64) (uint64, bool) {
	c := &t.c
	c.H.Enter()
	sr := t.seek(key)
	var v uint64
	found := sr.leafKey == key
	if found {
		v = c.Policy.Load(c.T, c.Field(sr.leaf, fVal), c.TravP())
	}
	t.settle(sr, key)
	c.Done()
	return v, found
}

// Snapshot reads all live user pairs (test helper; callers quiescent).
func (b *BST) Snapshot() map[uint64]uint64 { return gather(&b.cfg, uint64(b.r)) }

// gather reads the user pairs of the leaves reachable from rootRaw through
// unflagged edges, in volatile or recovered memory alike; the visited set
// ends the walk on a corrupt cyclic image.
func gather(cfg *dstruct.Config, rootRaw uint64) map[uint64]uint64 {
	mem := cfg.Heap.Mem()
	pairs := make(map[uint64]uint64)
	seen := make(map[pmem.Addr]bool)
	var walk func(raw uint64)
	walk = func(raw uint64) {
		n := dstruct.Ptr(raw)
		if n == pmem.NilAddr || dstruct.Flagged(raw) || seen[n] {
			return
		}
		seen[n] = true
		l := mem.VolatileWord(cfg.Field(n, fLeft))
		r := mem.VolatileWord(cfg.Field(n, fRight))
		if dstruct.Ptr(l) == pmem.NilAddr && dstruct.Ptr(r) == pmem.NilAddr {
			if k := mem.VolatileWord(cfg.Field(n, fKey)); k < dstruct.KeyMax {
				pairs[k] = mem.VolatileWord(cfg.Field(n, fVal))
			}
			return
		}
		walk(l)
		walk(r)
	}
	walk(rootRaw)
	return pairs
}

// Recover rebuilds a durably consistent tree from the image at cfg's root
// slot: leaves reachable through unflagged edges survive (a persisted flag
// is a delete that may take effect — see the package comment); flags and
// tags are discarded with the old structure, and survivors are re-inserted
// in median order into a fresh tree at the same root, yielding a balanced
// rebuild.
func Recover(cfg dstruct.Config) *BST {
	pairs := gather(&cfg, cfg.Heap.Mem().VolatileWord(cfg.Root()))

	b := New(cfg)
	th := b.Open(dstruct.ThreadOpts{})
	defer th.Close()
	keys := make([]uint64, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var insertBalanced func(lo, hi int)
	insertBalanced = func(lo, hi int) {
		if lo >= hi {
			return
		}
		mid := (lo + hi) / 2
		th.Insert(keys[mid], pairs[keys[mid]])
		insertBalanced(lo, mid)
		insertBalanced(mid+1, hi)
	}
	insertBalanced(0, len(keys))
	th.c.T.PFence()
	return b
}
