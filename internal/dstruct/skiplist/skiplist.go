// Package skiplist implements a Fraser-style lock-free skiplist [Fraser,
// 2003], the paper's third benchmark structure. Deletion marks a node's
// next pointers top-down, bottom last (the linearization point); traversals
// unlink marked nodes per level.
//
// Durability methods map naturally onto the tower structure: the bottom
// level *is* the set, so Automatic persists everything, NVTraverse
// persists the critical phase (bottom link plus tower writes), and Manual
// leaves all tower writes volatile — after a crash the index is rebuilt
// from the bottom level, exactly the hand-tuned construction of David et
// al. that the paper benchmarks.
//
// Nodes are not recycled: a skiplist node may remain reachable at upper
// levels after its bottom-level unlink, so safe reuse would need full
// tower unlinking guarantees; like the paper's artifact (ssmem without
// GC), deleted nodes leak for the run's duration. In exchange, Manual's
// volatile tower unlinks are safe: a stale persistent tower link can only
// point at an intact, never-reused marked node, which recovery discards.
package skiplist

import (
	"math/rand"
	"sync/atomic"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/pmem"
	"flit/internal/reclaim"
)

// MaxLevel is the tallest tower (supports ~2^20 keys comfortably).
const MaxLevel = 20

// Node field indices: 0 key, 1 value, 2 level, 3+i next[i].
const (
	fKey   = 0
	fVal   = 1
	fLevel = 2
	fNext0 = 3
)

// nodeFields returns the persisted field count of a node with the given
// tower height.
func nodeFields(level int) int { return fNext0 + level }

// SkipList is a durable lock-free skiplist set.
type SkipList struct {
	cfg  dstruct.Config
	dom  *reclaim.Domain
	head pmem.Addr
}

var seedCounter atomic.Int64

// New creates an empty skiplist anchored at cfg's root slot: a full-height
// head tower, persisted, with the root pointing at it.
func New(cfg dstruct.Config) *SkipList {
	t := cfg.Heap.Mem().RegisterThread()
	ar := cfg.Heap.NewArena()
	pol := cfg.Policy
	head := ar.Alloc(cfg.Words(nodeFields(MaxLevel)))
	pol.StorePrivate(t, cfg.Field(head, fKey), 0, core.V)
	pol.StorePrivate(t, cfg.Field(head, fVal), 0, core.V)
	pol.StorePrivate(t, cfg.Field(head, fLevel), MaxLevel, core.V)
	for i := 0; i < MaxLevel; i++ {
		pol.StorePrivate(t, cfg.Field(head, fNext0+i), 0, core.V)
	}
	pol.PersistObject(t, head, cfg.Words(nodeFields(MaxLevel)))
	pol.Store(t, cfg.Root(), uint64(head), core.P)
	pol.Complete(t)
	ar.Release()
	t.Release()
	return Attach(cfg)
}

// Attach wraps the skiplist persisted at cfg's root slot.
func Attach(cfg dstruct.Config) *SkipList {
	head := dstruct.Ptr(cfg.Heap.Mem().VolatileWord(cfg.Root()))
	return &SkipList{cfg: cfg, dom: reclaim.NewDomain(), head: head}
}

// Name returns "skiplist".
func (s *SkipList) Name() string { return "skiplist" }

// Thread is a per-goroutine handle to the skiplist.
type Thread struct {
	s   *SkipList
	c   dstruct.Ctx
	rng *rand.Rand
}

// NewThread creates a per-goroutine handle.
func (s *SkipList) NewThread() dstruct.SetThread { return s.newThread() }

func (s *SkipList) newThread() *Thread {
	return &Thread{
		s:   s,
		c:   s.cfg.NewCtx(s.dom),
		rng: rand.New(rand.NewSource(0x5eed + seedCounter.Add(1))),
	}
}

// Ctx exposes the thread's execution context (stats, crash injection).
func (t *Thread) Ctx() dstruct.Ctx { return t.c }

// randLevel draws a geometric(1/2) tower height in [1, MaxLevel].
func (t *Thread) randLevel() int {
	lvl := 1
	for lvl < MaxLevel && t.rng.Intn(2) == 0 {
		lvl++
	}
	return lvl
}

func (s *SkipList) travP() bool { return s.cfg.Mode == dstruct.Automatic }

// towerP reports whether tower (level >= 1) writes persist: Manual leaves
// the index volatile and rebuilds it during recovery.
func (s *SkipList) towerP() bool { return s.cfg.Mode != dstruct.Manual }

func (t *Thread) nextField(node pmem.Addr, lvl int) pmem.Addr {
	return t.s.cfg.Field(node, fNext0+lvl)
}

// find returns, per level, the address of the link word preceding key and
// the first node with key >= key, unlinking marked nodes on the way
// (Harris helping per level). Bottom-level unlinks persist in every mode:
// the bottom list is the durable set.
func (t *Thread) find(key uint64) (predLinks, succs [MaxLevel]pmem.Addr) {
	cfg := &t.s.cfg
	pol := cfg.Policy
	travP := t.s.travP()
retry:
	pred := t.s.head
	for lvl := MaxLevel - 1; lvl >= 0; lvl-- {
		link := t.nextField(pred, lvl)
		curr := dstruct.Ptr(pol.Load(t.c.T, link, travP))
		for curr != pmem.NilAddr {
			raw := pol.Load(t.c.T, t.nextField(curr, lvl), travP)
			if dstruct.Marked(raw) {
				unlinkP := core.P
				if lvl > 0 && !t.s.towerP() {
					unlinkP = core.V
				}
				if !pol.CAS(t.c.T, link, uint64(curr), uint64(dstruct.Ptr(raw)), unlinkP) {
					goto retry
				}
				curr = dstruct.Ptr(raw)
				continue
			}
			k := pol.Load(t.c.T, cfg.Field(curr, fKey), travP)
			if k >= key {
				break
			}
			pred = curr
			link = t.nextField(curr, lvl)
			curr = dstruct.Ptr(raw)
		}
		predLinks[lvl] = link
		succs[lvl] = curr
	}
	return predLinks, succs
}

func (t *Thread) transition(a pmem.Addr) {
	if t.s.cfg.Mode != dstruct.Automatic {
		t.s.cfg.Policy.Load(t.c.T, a, core.P)
	}
}

// Insert adds key→val if absent. The bottom-level link CAS linearizes (and
// persists); tower links follow best-effort.
func (t *Thread) Insert(key, val uint64) bool {
	if key >= dstruct.KeyMax {
		panic("skiplist: key out of range")
	}
	cfg := &t.s.cfg
	pol := cfg.Policy
	topLevel := t.randLevel()
	t.c.H.Enter()
	for {
		predLinks, succs := t.find(key)
		if succs[0] != pmem.NilAddr &&
			pol.Load(t.c.T, cfg.Field(succs[0], fKey), t.s.travP()) == key {
			t.transition(predLinks[0])
			pol.Complete(t.c.T)
			t.c.H.Exit()
			return false
		}
		t.transition(predLinks[0])
		node := t.c.Ar.Alloc(cfg.Words(nodeFields(topLevel)))
		t.initNode(node, key, val, topLevel, &succs)
		if !pol.CAS(t.c.T, predLinks[0], uint64(succs[0]), uint64(node), core.P) {
			t.c.Ar.Free(node, cfg.Words(nodeFields(topLevel))) // never shared
			continue
		}
		t.linkTowers(node, key, topLevel, &predLinks, &succs)
		pol.Complete(t.c.T)
		t.c.H.Exit()
		return true
	}
}

// initNode writes a fresh node. See list.initNode for the Automatic-vs-
// optimized distinction.
func (t *Thread) initNode(node pmem.Addr, key, val uint64, topLevel int, succs *[MaxLevel]pmem.Addr) {
	cfg := &t.s.cfg
	pol := cfg.Policy
	if cfg.Mode == dstruct.Automatic {
		pol.Store(t.c.T, cfg.Field(node, fKey), key, core.P)
		pol.Store(t.c.T, cfg.Field(node, fVal), val, core.P)
		pol.Store(t.c.T, cfg.Field(node, fLevel), uint64(topLevel), core.P)
		for i := 0; i < topLevel; i++ {
			pol.Store(t.c.T, t.nextField(node, i), uint64(succs[i]), core.P)
		}
		return
	}
	pol.StorePrivate(t.c.T, cfg.Field(node, fKey), key, core.V)
	pol.StorePrivate(t.c.T, cfg.Field(node, fVal), val, core.V)
	pol.StorePrivate(t.c.T, cfg.Field(node, fLevel), uint64(topLevel), core.V)
	for i := 0; i < topLevel; i++ {
		pol.StorePrivate(t.c.T, t.nextField(node, i), uint64(succs[i]), core.V)
	}
	pol.PersistObject(t.c.T, node, cfg.Words(nodeFields(topLevel)))
}

// linkTowers links node into levels 1..topLevel-1, abandoning a level (and
// the rest) if the node gets deleted concurrently — the standard
// best-effort index maintenance.
func (t *Thread) linkTowers(node pmem.Addr, key uint64, topLevel int, predLinks, succs *[MaxLevel]pmem.Addr) {
	cfg := &t.s.cfg
	pol := cfg.Policy
	towerP := t.s.towerP()
	for lvl := 1; lvl < topLevel; lvl++ {
		for {
			if dstruct.Marked(pol.Load(t.c.T, t.nextField(node, 0), core.V)) {
				return // node deleted; stop indexing it
			}
			if pol.CAS(t.c.T, predLinks[lvl], uint64(succs[lvl]), uint64(node), towerP) {
				break
			}
			pl, sc := t.find(key)
			if sc[0] != node {
				return // removed (or superseded); stop
			}
			*predLinks, *succs = pl, sc
			// Refresh our own forward pointer for this level; if the node
			// got marked meanwhile, stop.
			old := pol.Load(t.c.T, t.nextField(node, lvl), core.V)
			if dstruct.Marked(old) {
				return
			}
			if old != uint64(succs[lvl]) &&
				!pol.CAS(t.c.T, t.nextField(node, lvl), old, uint64(succs[lvl]), towerP) {
				return
			}
		}
	}
}

// Delete removes key if present: towers are marked top-down, then the
// bottom-level mark linearizes (persisted in every mode).
func (t *Thread) Delete(key uint64) bool {
	cfg := &t.s.cfg
	pol := cfg.Policy
	travP := t.s.travP()
	towerP := t.s.towerP()
	t.c.H.Enter()
	for {
		predLinks, succs := t.find(key)
		curr := succs[0]
		if curr == pmem.NilAddr || pol.Load(t.c.T, cfg.Field(curr, fKey), travP) != key {
			t.transition(predLinks[0])
			pol.Complete(t.c.T)
			t.c.H.Exit()
			return false
		}
		t.transition(predLinks[0])
		level := int(pol.Load(t.c.T, cfg.Field(curr, fLevel), travP))
		for lvl := level - 1; lvl >= 1; lvl-- {
			for {
				raw := pol.Load(t.c.T, t.nextField(curr, lvl), travP)
				if dstruct.Marked(raw) {
					break
				}
				if pol.CAS(t.c.T, t.nextField(curr, lvl), raw, raw|core.MarkBit, towerP) {
					break
				}
			}
		}
		for {
			raw := pol.Load(t.c.T, t.nextField(curr, 0), travP)
			if dstruct.Marked(raw) {
				// A concurrent delete linearized first; this response
				// rests on its mark, which it may not have persisted yet.
				t.transition(t.nextField(curr, 0))
				pol.Complete(t.c.T)
				t.c.H.Exit()
				return false
			}
			if pol.CAS(t.c.T, t.nextField(curr, 0), raw, raw|core.MarkBit, core.P) {
				t.find(key) // physical cleanup
				pol.Complete(t.c.T)
				t.c.H.Exit()
				return true
			}
		}
	}
}

// Contains reports whether key is present (wait-free: skips marked nodes
// without unlinking).
func (t *Thread) Contains(key uint64) bool {
	cfg := &t.s.cfg
	pol := cfg.Policy
	travP := t.s.travP()
	t.c.H.Enter()
	pred := t.s.head
	var link pmem.Addr
	for lvl := MaxLevel - 1; lvl >= 0; lvl-- {
		link = t.nextField(pred, lvl)
		curr := dstruct.Ptr(pol.Load(t.c.T, link, travP))
		for curr != pmem.NilAddr {
			raw := pol.Load(t.c.T, t.nextField(curr, lvl), travP)
			if dstruct.Marked(raw) {
				if lvl == 0 && !travP && pol.Load(t.c.T, cfg.Field(curr, fKey), travP) == key {
					// Logically deleted: absence rests on the bottom mark,
					// which the concurrent Delete may not have persisted yet.
					t.transition(t.nextField(curr, 0))
				}
				curr = dstruct.Ptr(raw)
				continue
			}
			k := pol.Load(t.c.T, cfg.Field(curr, fKey), travP)
			if k < key {
				pred = curr
				link = t.nextField(curr, lvl)
				curr = dstruct.Ptr(raw)
				continue
			}
			if lvl == 0 && k == key {
				t.transition(link)
				t.transition(t.nextField(curr, 0))
				pol.Complete(t.c.T)
				t.c.H.Exit()
				return true
			}
			break
		}
	}
	t.transition(link)
	pol.Complete(t.c.T)
	t.c.H.Exit()
	return false
}

// Snapshot reads the unmarked bottom-level pairs (test helper).
func (s *SkipList) Snapshot() map[uint64]uint64 {
	mem := s.cfg.Heap.Mem()
	out := make(map[uint64]uint64)
	curr := dstruct.Ptr(mem.VolatileWord(s.cfg.Field(s.head, fNext0)))
	for curr != pmem.NilAddr {
		raw := mem.VolatileWord(s.cfg.Field(curr, fNext0))
		if !dstruct.Marked(raw) {
			out[mem.VolatileWord(s.cfg.Field(curr, fKey))] = mem.VolatileWord(s.cfg.Field(curr, fVal))
		}
		curr = dstruct.Ptr(raw)
	}
	return out
}

// Recover rebuilds a durably consistent skiplist from the bottom level
// persisted at cfg's root slot: surviving pairs are gathered from the
// bottom list (towers are untrusted — Manual never persisted them) and
// re-inserted into a fresh skiplist at the same root.
//
//flit:rawpersist recovery is single-threaded; the rebuild fences once after re-insertion
func Recover(cfg dstruct.Config) *SkipList {
	mem := cfg.Heap.Mem()
	oldHead := dstruct.Ptr(mem.VolatileWord(cfg.Root()))
	pairs := make(map[uint64]uint64)
	seen := make(map[pmem.Addr]bool)
	curr := dstruct.Ptr(mem.VolatileWord(cfg.Field(oldHead, fNext0)))
	for curr != pmem.NilAddr && !seen[curr] {
		seen[curr] = true
		raw := mem.VolatileWord(cfg.Field(curr, fNext0))
		if !dstruct.Marked(raw) {
			pairs[mem.VolatileWord(cfg.Field(curr, fKey))] = mem.VolatileWord(cfg.Field(curr, fVal))
		}
		curr = dstruct.Ptr(raw)
	}
	s := New(cfg) // fresh head, root overwritten durably
	th := s.newThread()
	for k, v := range pairs {
		th.Insert(k, v)
	}
	th.c.T.PFence()
	return s
}
