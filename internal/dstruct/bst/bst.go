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
// policies without FAA/Exchange? No — it rejects nothing except
// link-and-persist, whose stolen bit collides with the NM tag bits.
func New(cfg dstruct.Config) *BST {
	if _, lap := cfg.Policy.(core.LinkAndPersist); lap {
		panic("bst: link-and-persist is inapplicable — the NM-BST uses every spare word bit (paper §6.4)")
	}
	t := cfg.Heap.Mem().RegisterThread()
	ar := cfg.Heap.NewArena()
	pol := cfg.Policy
	mkNode := func(key, val uint64, left, right pmem.Addr) pmem.Addr {
		n := ar.Alloc(cfg.Words(NumFields))
		pol.StorePrivate(t, cfg.Field(n, fKey), key, core.V)
		pol.StorePrivate(t, cfg.Field(n, fVal), val, core.V)
		pol.StorePrivate(t, cfg.Field(n, fLeft), uint64(left), core.V)
		pol.StorePrivate(t, cfg.Field(n, fRight), uint64(right), core.V)
		pol.PersistObject(t, n, cfg.Words(NumFields))
		return n
	}
	l0 := mkNode(inf0, 0, 0, 0)
	l1 := mkNode(inf1, 0, 0, 0)
	l2 := mkNode(inf2, 0, 0, 0)
	s := mkNode(inf1, 0, l0, l1)
	r := mkNode(inf2, 0, s, l2)
	pol.Store(t, cfg.Root(), uint64(r), core.P)
	pol.Complete(t)
	ar.Release()
	t.Release()
	return Attach(cfg)
}

// Attach wraps the tree persisted at cfg's root slot.
func Attach(cfg dstruct.Config) *BST {
	mem := cfg.Heap.Mem()
	r := dstruct.Ptr(mem.VolatileWord(cfg.Root()))
	s := dstruct.Ptr(mem.VolatileWord(cfg.Field(r, fLeft)))
	return &BST{cfg: cfg, dom: reclaim.NewDomain(), r: r, s: s}
}

// Name returns "bst".
func (b *BST) Name() string { return "bst" }

// Thread is a per-goroutine handle to the tree.
type Thread struct {
	b *BST
	c dstruct.Ctx
}

// NewThread creates a per-goroutine handle.
func (b *BST) NewThread() dstruct.SetThread { return b.newThread() }

func (b *BST) newThread() *Thread { return &Thread{b: b, c: b.cfg.NewCtx(b.dom)} }

// Ctx exposes the thread's execution context (stats, crash injection).
func (t *Thread) Ctx() dstruct.Ctx { return t.c }

func (b *BST) travP() bool { return b.cfg.Mode == dstruct.Automatic }

// cleanupP is the pflag of loads and of the tag CAS inside cleanup: the
// NVtraverse methodology persists the whole critical phase; Manual lets
// recovery repair lost tags.
func (b *BST) cleanupP() bool { return b.cfg.Mode != dstruct.Manual }

// childField returns the address of node's child edge toward key.
func (t *Thread) childField(node pmem.Addr, nodeKey, key uint64) pmem.Addr {
	if key < nodeKey {
		return t.b.cfg.Field(node, fLeft)
	}
	return t.b.cfg.Field(node, fRight)
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
	cfg := &t.b.cfg
	pol := cfg.Policy
	travP := t.b.travP()
	sr := seekRec{ancestor: t.b.r, successor: t.b.s, parent: t.b.s, parentEdge: cfg.Field(t.b.r, fLeft)}
	leafEdge := cfg.Field(t.b.s, fLeft) // key < inf1: always left of S
	parentRaw := pol.Load(t.c.T, leafEdge, travP)
	sr.leaf = dstruct.Ptr(parentRaw)
	sr.leafKey = pol.Load(t.c.T, cfg.Field(sr.leaf, fKey), travP)
	curEdge := t.childField(sr.leaf, sr.leafKey, key)
	curRaw := pol.Load(t.c.T, curEdge, travP)
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
		sr.leafKey = pol.Load(t.c.T, cfg.Field(cur, fKey), travP)
		parentRaw = curRaw
		curEdge = t.childField(cur, sr.leafKey, key)
		curRaw = pol.Load(t.c.T, curEdge, travP)
	}
}

// transition re-examines, with p-loads, the two links a response rests
// on at the traversal/critical boundary: the edge into parent and parent's
// edge toward the key (see list.transition; redundant under Automatic).
func (t *Thread) transition(sr seekRec, edge pmem.Addr) {
	if t.b.cfg.Mode != dstruct.Automatic {
		t.b.cfg.Policy.Load(t.c.T, sr.parentEdge, core.P)
		t.b.cfg.Policy.Load(t.c.T, edge, core.P)
	}
}

// initNode writes a fresh node (see list.initNode for the mode split).
func (t *Thread) initNode(n pmem.Addr, key, val uint64, left, right pmem.Addr) {
	cfg := &t.b.cfg
	pol := cfg.Policy
	if cfg.Mode == dstruct.Automatic {
		pol.Store(t.c.T, cfg.Field(n, fKey), key, core.P)
		pol.Store(t.c.T, cfg.Field(n, fVal), val, core.P)
		pol.Store(t.c.T, cfg.Field(n, fLeft), uint64(left), core.P)
		pol.Store(t.c.T, cfg.Field(n, fRight), uint64(right), core.P)
		return
	}
	pol.StorePrivate(t.c.T, cfg.Field(n, fKey), key, core.V)
	pol.StorePrivate(t.c.T, cfg.Field(n, fVal), val, core.V)
	pol.StorePrivate(t.c.T, cfg.Field(n, fLeft), uint64(left), core.V)
	pol.StorePrivate(t.c.T, cfg.Field(n, fRight), uint64(right), core.V)
	pol.PersistObject(t.c.T, n, cfg.Words(NumFields))
}

// Insert adds key→val if absent.
func (t *Thread) Insert(key, val uint64) bool {
	if key >= dstruct.KeyMax {
		panic("bst: key out of range")
	}
	cfg := &t.b.cfg
	pol := cfg.Policy
	t.c.H.Enter()
	for {
		sr := t.seek(key)
		pkey := pol.Load(t.c.T, cfg.Field(sr.parent, fKey), t.b.travP())
		edge := t.childField(sr.parent, pkey, key)
		if sr.leafKey == key {
			t.transition(sr, edge)
			pol.Complete(t.c.T)
			t.c.H.Exit()
			return false
		}
		t.transition(sr, edge)
		newLeaf := t.c.Ar.Alloc(cfg.Words(NumFields))
		t.initNode(newLeaf, key, val, 0, 0)
		newInt := t.c.Ar.Alloc(cfg.Words(NumFields))
		if key < sr.leafKey {
			t.initNode(newInt, sr.leafKey, 0, newLeaf, sr.leaf)
		} else {
			t.initNode(newInt, key, 0, sr.leaf, newLeaf)
		}
		if pol.CAS(t.c.T, edge, uint64(sr.leaf), uint64(newInt), core.P) {
			pol.Complete(t.c.T)
			t.c.H.Exit()
			return true
		}
		// Never shared: reuse directly.
		t.c.Ar.Free(newLeaf, cfg.Words(NumFields))
		t.c.Ar.Free(newInt, cfg.Words(NumFields))
		raw := pol.Load(t.c.T, edge, t.b.travP())
		if dstruct.Ptr(raw) == sr.leaf && (dstruct.Flagged(raw) || dstruct.Tagged(raw)) {
			t.cleanup(key, sr) // help the obstructing delete
		}
	}
}

// Delete removes key if present: flag the parent→leaf edge (injection),
// then cleanup until the leaf is gone.
func (t *Thread) Delete(key uint64) bool {
	cfg := &t.b.cfg
	pol := cfg.Policy
	t.c.H.Enter()
	injecting := true
	var leaf pmem.Addr
	for {
		sr := t.seek(key)
		if injecting {
			if sr.leafKey != key {
				pkey := pol.Load(t.c.T, cfg.Field(sr.parent, fKey), t.b.travP())
				t.transition(sr, t.childField(sr.parent, pkey, key))
				pol.Complete(t.c.T)
				t.c.H.Exit()
				return false
			}
			pkey := pol.Load(t.c.T, cfg.Field(sr.parent, fKey), t.b.travP())
			edge := t.childField(sr.parent, pkey, key)
			t.transition(sr, edge)
			if pol.CAS(t.c.T, edge, uint64(sr.leaf), uint64(sr.leaf)|core.FlagBit, core.P) {
				injecting = false
				leaf = sr.leaf
				if t.cleanup(key, sr) {
					pol.Complete(t.c.T)
					t.c.H.Exit()
					return true
				}
			} else {
				raw := pol.Load(t.c.T, edge, t.b.travP())
				if dstruct.Ptr(raw) == sr.leaf && (dstruct.Flagged(raw) || dstruct.Tagged(raw)) {
					t.cleanup(key, sr)
				}
			}
		} else {
			if sr.leaf != leaf {
				// Someone finished our removal.
				pol.Complete(t.c.T)
				t.c.H.Exit()
				return true
			}
			if t.cleanup(key, sr) {
				pol.Complete(t.c.T)
				t.c.H.Exit()
				return true
			}
		}
	}
}

// cleanup performs the NM removal: freeze the sibling edge with a tag,
// then swing the ancestor's successor edge to the sibling (preserving the
// sibling's flag). Returns whether this thread's swing succeeded; if so it
// retires the removed parent and leaf.
func (t *Thread) cleanup(key uint64, sr seekRec) bool {
	cfg := &t.b.cfg
	pol := cfg.Policy
	cp := t.b.cleanupP()
	ak := pol.Load(t.c.T, cfg.Field(sr.ancestor, fKey), cp)
	succField := t.childField(sr.ancestor, ak, key)
	pk := pol.Load(t.c.T, cfg.Field(sr.parent, fKey), cp)
	childField := t.childField(sr.parent, pk, key)
	siblingField := cfg.Field(sr.parent, fLeft)
	if childField == siblingField {
		siblingField = cfg.Field(sr.parent, fRight)
	}
	childRaw := pol.Load(t.c.T, childField, cp)
	if !dstruct.Flagged(childRaw) {
		// The pending delete targets the other side; keep that side's
		// subtree and remove the (flagged) original sibling.
		siblingField = childField
	}
	// Freeze the kept edge so it cannot change while we splice it up.
	for {
		v := pol.Load(t.c.T, siblingField, cp)
		if dstruct.Tagged(v) {
			break
		}
		if pol.CAS(t.c.T, siblingField, v, v|core.TagBit, cp) {
			break
		}
	}
	v := pol.Load(t.c.T, siblingField, cp)
	kept := uint64(dstruct.Ptr(v)) | (v & core.FlagBit) // untag, keep flag
	// The swing is a p-store in every mode: it makes parent and leaf
	// unreachable, and they are retired for reuse below.
	if !pol.CAS(t.c.T, succField, uint64(sr.successor), kept, core.P) {
		return false
	}
	removedField := cfg.Field(sr.parent, fLeft)
	if removedField == siblingField {
		removedField = cfg.Field(sr.parent, fRight)
	}
	removed := dstruct.Ptr(pol.Load(t.c.T, removedField, cp))
	t.c.H.Retire(sr.parent, cfg.Words(NumFields))
	if removed != pmem.NilAddr {
		t.c.H.Retire(removed, cfg.Words(NumFields))
	}
	return true
}

// Contains reports whether key is present.
func (t *Thread) Contains(key uint64) bool {
	pol := t.b.cfg.Policy
	t.c.H.Enter()
	sr := t.seek(key)
	found := sr.leafKey == key
	pkey := pol.Load(t.c.T, t.b.cfg.Field(sr.parent, fKey), t.b.travP())
	t.transition(sr, t.childField(sr.parent, pkey, key))
	pol.Complete(t.c.T)
	t.c.H.Exit()
	return found
}

// Get returns the value stored under key, if present.
func (t *Thread) Get(key uint64) (uint64, bool) {
	pol := t.b.cfg.Policy
	t.c.H.Enter()
	sr := t.seek(key)
	var v uint64
	found := sr.leafKey == key
	if found {
		v = pol.Load(t.c.T, t.b.cfg.Field(sr.leaf, fVal), t.b.travP())
	}
	pkey := pol.Load(t.c.T, t.b.cfg.Field(sr.parent, fKey), t.b.travP())
	t.transition(sr, t.childField(sr.parent, pkey, key))
	pol.Complete(t.c.T)
	t.c.H.Exit()
	return v, found
}

// Snapshot reads all live user pairs (test helper; callers quiescent).
func (b *BST) Snapshot() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	mem := b.cfg.Heap.Mem()
	var walk func(raw uint64)
	walk = func(raw uint64) {
		n := dstruct.Ptr(raw)
		if n == pmem.NilAddr || dstruct.Flagged(raw) {
			return
		}
		l := mem.VolatileWord(b.cfg.Field(n, fLeft))
		r := mem.VolatileWord(b.cfg.Field(n, fRight))
		if dstruct.Ptr(l) == pmem.NilAddr && dstruct.Ptr(r) == pmem.NilAddr {
			k := mem.VolatileWord(b.cfg.Field(n, fKey))
			if k < dstruct.KeyMax {
				out[k] = mem.VolatileWord(b.cfg.Field(n, fVal))
			}
			return
		}
		walk(l)
		walk(r)
	}
	walk(uint64(b.r))
	return out
}

// Recover rebuilds a durably consistent tree from the image at cfg's root
// slot: leaves reachable through unflagged edges survive (a persisted flag
// is a delete that may take effect — see the package comment); flags and
// tags are discarded with the old structure, and survivors are re-inserted
// in median order into a fresh tree at the same root, yielding a balanced
// rebuild.
//
//flit:rawpersist recovery is single-threaded; the rebuild fences once after re-insertion
func Recover(cfg dstruct.Config) *BST {
	mem := cfg.Heap.Mem()
	rootRaw := mem.VolatileWord(cfg.Root())
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

	b := New(cfg)
	th := b.newThread()
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
