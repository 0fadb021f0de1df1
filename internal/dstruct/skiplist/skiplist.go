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
	// seeds numbers the handles opened on this instance: handle i draws its
	// tower heights from a generator seeded by i, so a run repeats.
	seeds atomic.Int64
}

// New creates an empty skiplist anchored at cfg's root slot: a full-height
// head tower, persisted, with the root pointing at it.
func New(cfg dstruct.Config) *SkipList {
	head := make([]uint64, nodeFields(MaxLevel)) // key 0, value 0, nil links
	head[fLevel] = MaxLevel
	cfg.Anchor(head...)
	return Attach(cfg)
}

// Attach wraps the skiplist persisted at cfg's root slot; its handles
// reclaim through cfg's domain (dstruct.Config.DomainOrNew).
func Attach(cfg dstruct.Config) *SkipList {
	head := dstruct.Ptr(cfg.Heap.Mem().VolatileWord(cfg.Root()))
	return &SkipList{cfg: cfg, dom: cfg.DomainOrNew(), head: head}
}

// Thread is a per-goroutine handle to the skiplist.
type Thread struct {
	s   *SkipList
	c   dstruct.Ctx
	rng *rand.Rand
}

// NewThread creates a standalone per-goroutine handle — the Set
// interface's spelling of Open(ThreadOpts{}).
func (s *SkipList) NewThread() dstruct.SetThread { return s.Open(dstruct.ThreadOpts{}) }

// Open creates a per-goroutine handle; see dstruct.ThreadOpts.
func (s *SkipList) Open(o dstruct.ThreadOpts) *Thread {
	return &Thread{
		s:   s,
		c:   s.cfg.Open(s.dom, o),
		rng: rand.New(rand.NewSource(0x5eed + s.seeds.Add(1))),
	}
}

// Close releases the handle; see dstruct.Ctx.Close.
func (t *Thread) Close() { t.c.Close() }

// Ctx exposes the thread's execution context (stats, crash injection).
func (t *Thread) Ctx() *dstruct.Ctx { return &t.c }

// randLevel draws a geometric(1/2) tower height in [1, MaxLevel].
func (t *Thread) randLevel() int {
	lvl := 1
	for lvl < MaxLevel && t.rng.Intn(2) == 0 {
		lvl++
	}
	return lvl
}

// towerP reports whether tower (level >= 1) writes persist: Manual leaves
// the index volatile and rebuilds it during recovery.
func (t *Thread) towerP() bool { return t.c.Mode != dstruct.Manual }

func (t *Thread) nextField(node pmem.Addr, lvl int) pmem.Addr {
	return t.c.Field(node, fNext0+lvl)
}

// find returns, per level, the address of the link word preceding key and
// the first node with key >= key, unlinking marked nodes on the way
// (Harris helping per level). Bottom-level unlinks persist in every mode:
// the bottom list is the durable set. inLink is the bottom-level link
// through which the node holding predLinks[0] was reached — predLinks[0]
// itself when the walk came down onto that node from its tower, whose
// links are only ever written after the bottom one has persisted.
func (t *Thread) find(key uint64) (inLink pmem.Addr, predLinks, succs [MaxLevel]pmem.Addr) {
	c := &t.c
	pol := c.Policy
	travP := c.TravP()
retry:
	pred := t.s.head
	for lvl := MaxLevel - 1; lvl >= 0; lvl-- {
		link := t.nextField(pred, lvl)
		inLink = link
		curr := dstruct.Ptr(pol.Load(c.T, link, travP))
		for curr != pmem.NilAddr {
			raw := pol.Load(c.T, t.nextField(curr, lvl), travP)
			if dstruct.Marked(raw) {
				unlinkP := lvl == 0 || t.towerP()
				if lvl == 0 {
					// The durable unlink rests on the mark (see list.find).
					c.Transition(t.nextField(curr, 0))
				}
				if !pol.CAS(c.T, link, uint64(curr), uint64(dstruct.Ptr(raw)), unlinkP) {
					goto retry
				}
				curr = dstruct.Ptr(raw)
				continue
			}
			k := pol.Load(c.T, c.Field(curr, fKey), travP)
			if k >= key {
				break
			}
			pred = curr
			inLink, link = link, t.nextField(curr, lvl)
			curr = dstruct.Ptr(raw)
		}
		predLinks[lvl] = link
		succs[lvl] = curr
	}
	return inLink, predLinks, succs
}

// Insert adds key→val if absent. The bottom-level link CAS linearizes (and
// persists); tower links follow best-effort.
func (t *Thread) Insert(key, val uint64) bool {
	if key >= dstruct.KeyMax {
		panic("skiplist: key out of range")
	}
	c := &t.c
	pol := c.Policy
	topLevel := t.randLevel()
	c.H.Enter()
	for {
		inLink, predLinks, succs := t.find(key)
		if succs[0] != pmem.NilAddr &&
			pol.Load(c.T, c.Field(succs[0], fKey), c.TravP()) == key {
			c.Transition(predLinks[0])
			c.Done()
			return false
		}
		c.Transition(inLink, predLinks[0])
		node := c.Ar.Alloc(c.Words(nodeFields(topLevel)))
		fields := [fNext0 + MaxLevel]uint64{fKey: key, fVal: val, fLevel: uint64(topLevel)}
		for i := 0; i < topLevel; i++ {
			fields[fNext0+i] = uint64(succs[i])
		}
		c.InitNode(node, fields[:nodeFields(topLevel)]...)
		if !pol.CAS(c.T, predLinks[0], uint64(succs[0]), uint64(node), core.P) {
			c.Ar.Free(node, c.Words(nodeFields(topLevel))) // never shared
			continue
		}
		t.linkTowers(node, key, topLevel, &predLinks, &succs)
		c.Done()
		return true
	}
}

// linkTowers links node into levels 1..topLevel-1, abandoning a level (and
// the rest) if the node gets deleted concurrently — the standard
// best-effort index maintenance.
func (t *Thread) linkTowers(node pmem.Addr, key uint64, topLevel int, predLinks, succs *[MaxLevel]pmem.Addr) {
	c := &t.c
	pol := c.Policy
	towerP := t.towerP()
	for lvl := 1; lvl < topLevel; lvl++ {
		for {
			if dstruct.Marked(pol.Load(c.T, t.nextField(node, 0), core.V)) {
				return // node deleted; stop indexing it
			}
			if pol.CAS(c.T, predLinks[lvl], uint64(succs[lvl]), uint64(node), towerP) {
				break
			}
			_, pl, sc := t.find(key)
			if sc[0] != node {
				return // removed (or superseded); stop
			}
			*predLinks, *succs = pl, sc
			// Refresh our own forward pointer for this level; if the node
			// got marked meanwhile, stop.
			old := pol.Load(c.T, t.nextField(node, lvl), core.V)
			if dstruct.Marked(old) {
				return
			}
			if old != uint64(succs[lvl]) &&
				!pol.CAS(c.T, t.nextField(node, lvl), old, uint64(succs[lvl]), towerP) {
				return
			}
		}
	}
}

// Delete removes key if present: towers are marked top-down, then the
// bottom-level mark linearizes (persisted in every mode).
func (t *Thread) Delete(key uint64) bool {
	c := &t.c
	pol := c.Policy
	travP := c.TravP()
	towerP := t.towerP()
	c.H.Enter()
	for {
		_, predLinks, succs := t.find(key)
		curr := succs[0]
		// Absent: the response rests on the link proving it. Present: the
		// marks depend on curr being reachable.
		c.Transition(predLinks[0])
		if curr == pmem.NilAddr || pol.Load(c.T, c.Field(curr, fKey), travP) != key {
			c.Done()
			return false
		}
		level := int(pol.Load(c.T, c.Field(curr, fLevel), travP))
		for lvl := level - 1; lvl >= 1; lvl-- {
			for {
				raw := pol.Load(c.T, t.nextField(curr, lvl), travP)
				if dstruct.Marked(raw) {
					break
				}
				if pol.CAS(c.T, t.nextField(curr, lvl), raw, raw|core.MarkBit, towerP) {
					break
				}
			}
		}
		for {
			raw := pol.Load(c.T, t.nextField(curr, 0), travP)
			if dstruct.Marked(raw) {
				// A concurrent delete linearized first; this response
				// rests on its mark, which it may not have persisted yet.
				c.Transition(t.nextField(curr, 0))
				c.Done()
				return false
			}
			if pol.CAS(c.T, t.nextField(curr, 0), raw, raw|core.MarkBit, core.P) {
				t.find(key) // physical cleanup
				c.Done()
				return true
			}
		}
	}
}

// Contains reports whether key is present (wait-free: skips marked nodes
// without unlinking).
func (t *Thread) Contains(key uint64) bool {
	c := &t.c
	pol := c.Policy
	travP := c.TravP()
	c.H.Enter()
	pred := t.s.head
	var link pmem.Addr
	for lvl := MaxLevel - 1; lvl >= 0; lvl-- {
		link = t.nextField(pred, lvl)
		curr := dstruct.Ptr(pol.Load(c.T, link, travP))
		for curr != pmem.NilAddr {
			raw := pol.Load(c.T, t.nextField(curr, lvl), travP)
			if dstruct.Marked(raw) {
				if lvl == 0 && !travP {
					// Skipped, but the answer may rest on it (as in
					// list.ContainsAt). Sorting before key, it is a
					// predecessor: what follows was reached through its
					// link, not pred's. Holding key, it is logically
					// deleted: absence rests on its bottom mark, which the
					// concurrent Delete may not have persisted yet.
					switch k := pol.Load(c.T, c.Field(curr, fKey), travP); {
					case k < key:
						link = t.nextField(curr, 0)
					case k == key:
						c.Transition(t.nextField(curr, 0))
					}
				}
				curr = dstruct.Ptr(raw)
				continue
			}
			k := pol.Load(c.T, c.Field(curr, fKey), travP)
			if k < key {
				pred = curr
				link = t.nextField(curr, lvl)
				curr = dstruct.Ptr(raw)
				continue
			}
			if lvl == 0 && k == key {
				c.Transition(link, t.nextField(curr, 0))
				c.Done()
				return true
			}
			break
		}
	}
	c.Transition(link)
	c.Done()
	return false
}

// Snapshot reads the unmarked bottom-level pairs (test helper).
func (s *SkipList) Snapshot() map[uint64]uint64 { return gather(&s.cfg, s.head) }

// gather reads the unmarked pairs off the bottom level of the skiplist
// headed at head, in volatile or recovered memory alike; the visited set
// ends the walk on a corrupt cyclic image.
func gather(cfg *dstruct.Config, head pmem.Addr) map[uint64]uint64 {
	mem := cfg.Heap.Mem()
	pairs := make(map[uint64]uint64)
	seen := make(map[pmem.Addr]bool)
	curr := dstruct.Ptr(mem.VolatileWord(cfg.Field(head, fNext0)))
	for curr != pmem.NilAddr && !seen[curr] {
		seen[curr] = true
		raw := mem.VolatileWord(cfg.Field(curr, fNext0))
		if !dstruct.Marked(raw) {
			pairs[mem.VolatileWord(cfg.Field(curr, fKey))] = mem.VolatileWord(cfg.Field(curr, fVal))
		}
		curr = dstruct.Ptr(raw)
	}
	return pairs
}

// Recover rebuilds a durably consistent skiplist from the bottom level
// persisted at cfg's root slot: surviving pairs are gathered from the
// bottom list (towers are untrusted — Manual never persisted them) and
// re-inserted into a fresh skiplist at the same root.
func Recover(cfg dstruct.Config) *SkipList {
	pairs := gather(&cfg, dstruct.Ptr(cfg.Heap.Mem().VolatileWord(cfg.Root())))
	s := New(cfg) // fresh head, root overwritten durably
	th := s.Open(dstruct.ThreadOpts{})
	defer th.Close()
	for k, v := range pairs {
		th.Insert(k, v)
	}
	th.c.T.PFence()
	return s
}
