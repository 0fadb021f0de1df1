// Package list implements Harris's lock-free linked list [DISC'01], the
// first of the paper's four benchmark structures (and the building block
// of its hash table). Logical deletion sets the Harris mark bit in a
// node's next pointer; traversals physically unlink marked nodes.
//
// Persistence is delegated entirely to the configured core.Policy and
// durability Mode: Automatic issues every access as a p-instruction;
// NVTraverse and Manual traverse with v-loads and re-examine the decisive
// links with p-loads at the traversal/critical transition. Unlink CASes
// are p-instructions in every mode: a node is retired to the reclamation
// domain right after it is unlinked, so the unlink must be persistent
// before the node's memory can be reused (otherwise the persistent image
// could point into recycled memory).
package list

import (
	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/pmem"
	"flit/internal/reclaim"
)

// Node field indices (multiplied by the configured stride).
const (
	fKey  = 0
	fVal  = 1
	fNext = 2
	// NumFields is the number of persisted fields per node.
	NumFields = 3
)

// List is a durable lock-free sorted linked list (a set of key→value
// pairs). The root slot word holds the pointer to the first node; there
// are no sentinel nodes.
type List struct {
	cfg dstruct.Config
	dom *reclaim.Domain
}

// New creates an empty list anchored at cfg's root slot. The root word is
// initialized durably so that recovery after an immediate crash finds an
// empty, not garbage, structure.
func New(cfg dstruct.Config) *List {
	c := cfg.Open(nil, dstruct.ThreadOpts{})
	c.Policy.StorePrivate(c.T, c.Root(), 0, core.P)
	c.Close()
	return Attach(cfg)
}

// Attach wraps an existing structure (e.g. one found in recovered memory)
// without touching the root.
func Attach(cfg dstruct.Config) *List {
	return &List{cfg: cfg, dom: reclaim.NewDomain()}
}

// Name returns "list".
func (l *List) Name() string { return "list" }

// Thread is a per-goroutine handle to the list. Its context carries the
// list's config with Policy possibly overridden per thread
// (ThreadOpts.Policy): the group-commit batch sessions run the same
// structure under a deferred-persistence wrapper while plain sessions keep
// the base policy.
type Thread struct {
	c dstruct.Ctx
}

// NewThread creates a standalone per-goroutine handle — the Set
// interface's spelling of Open(ThreadOpts{}).
func (l *List) NewThread() dstruct.SetThread { return l.Open(dstruct.ThreadOpts{}) }

// Open creates a per-goroutine handle; see dstruct.ThreadOpts.
func (l *List) Open(o dstruct.ThreadOpts) *Thread {
	return &Thread{c: l.cfg.Open(l.dom, o)}
}

// Close releases the handle; see dstruct.Ctx.Close.
func (t *Thread) Close() { t.c.Close() }

// Ctx exposes the thread's execution context (stats, crash injection).
func (t *Thread) Ctx() *dstruct.Ctx { return &t.c }

// find locates the first node with key >= key, physically unlinking any
// marked node it passes (Harris's helping). It returns the address of the
// link word pointing at curr (predLink), the link through which the node
// holding predLink was itself reached (inLink; head when predLink is the
// head), curr itself (0 if none), and curr's key.
//
//flit:hotpath
func (t *Thread) find(head pmem.Addr, key uint64) (inLink, predLink, curr pmem.Addr, curKey uint64) {
	c := &t.c
	pol := c.Policy
	travP := c.TravP()
retry:
	inLink, predLink = head, head
	curr = dstruct.Ptr(pol.Load(c.T, predLink, travP))
	for curr != pmem.NilAddr {
		nextRaw := pol.Load(c.T, c.Field(curr, fNext), travP)
		if dstruct.Marked(nextRaw) {
			// curr is logically deleted: unlink it. The unlink is a
			// p-instruction in every mode — curr is retired immediately
			// after, so its unreachability must persist before reuse. It
			// rests on the mark, which the Delete may not have persisted
			// yet: an unlink that outlives its mark resurrects curr when
			// the crash also loses the link into pred.
			c.Transition(c.Field(curr, fNext))
			succ := dstruct.Ptr(nextRaw)
			if !pol.CAS(c.T, predLink, uint64(curr), uint64(succ), core.P) {
				goto retry
			}
			c.H.Retire(curr, c.Words(NumFields))
			curr = succ
			continue
		}
		k := pol.Load(c.T, c.Field(curr, fKey), travP)
		if k >= key {
			return inLink, predLink, curr, k
		}
		inLink, predLink = predLink, c.Field(curr, fNext)
		curr = dstruct.Ptr(nextRaw)
	}
	return inLink, predLink, pmem.NilAddr, 0
}

// Insert adds key→val if absent.
func (t *Thread) Insert(key, val uint64) bool { return t.InsertAt(t.c.Root(), key, val) }

// InsertAt runs Insert on the chain rooted at the link word head — the
// entry point the hash table uses for its buckets.
func (t *Thread) InsertAt(head pmem.Addr, key, val uint64) bool {
	return t.insertAt(head, key, val, false)
}

// insertAt is the shared insert protocol; the key-present branch either
// returns false untouched (Insert) or overwrites the value in place with
// a shared p-store (Upsert).
//
//flit:hotpath
func (t *Thread) insertAt(head pmem.Addr, key, val uint64, upsert bool) bool {
	if key >= dstruct.KeyMax {
		panic("list: key out of range")
	}
	c := &t.c
	pol := c.Policy
	c.H.Enter()
	for {
		inLink, predLink, curr, curKey := t.find(head, key)
		if curr != pmem.NilAddr && curKey == key {
			// Present: the response depends on the link that proves it.
			c.Transition(predLink)
			if upsert {
				pol.Store(c.T, c.Field(curr, fVal), val, core.P)
			}
			c.Done()
			return false
		}
		// Absent: the linking CAS rests on the link it swings and on the
		// one that reached its predecessor (dstruct.Ctx.Transition).
		c.Transition(inLink, predLink)
		node := c.Ar.Alloc(c.Words(NumFields))
		c.InitNode(node, key, val, uint64(curr))
		if pol.CAS(c.T, predLink, uint64(curr), uint64(node), core.P) {
			c.Done()
			return true
		}
		// Lost the race; the node was never shared, reuse it directly.
		c.Ar.Free(node, c.Words(NumFields))
	}
}

// UpsertAt inserts key→val into the chain rooted at head if key is absent,
// or durably overwrites the value in place if present. It reports whether a
// new node was inserted. The in-place update is a shared p-store on the
// value word: its leading fence orders the loads that located the node, and
// the value is persisted before the operation completes, so recovery
// observes either the old or the new value, never a torn state. Overwriting
// a node that a concurrent Delete has already marked is benign — the upsert
// linearizes immediately before the delete — and writing a node another
// thread has retired is safe inside the epoch, which blocks reuse until
// every current operation exits.
func (t *Thread) UpsertAt(head pmem.Addr, key, val uint64) bool {
	return t.insertAt(head, key, val, true)
}

// Add atomically adds delta to key's value (fetch-and-add semantics,
// wrapping at 2^64), inserting key→delta if absent. It returns the
// post-add value and whether the key was already present.
func (t *Thread) Add(key, delta uint64) (uint64, bool) { return t.AddAt(t.c.Root(), key, delta) }

// AddAt runs Add on the chain rooted at head. On a present key the
// update is a single shared p-FAA on the value word — its leading fence
// orders the locating loads, and the new value persists before the
// operation completes, so recovery observes the counter before or after
// the whole delta, never torn. Policies without RMW instructions
// (link-and-persist) fall back to a p-CAS loop, which additionally
// requires the counter to stay inside the instrumented payload
// (core.PayloadMask): the dirty-bit discipline owns the high bits of
// every word it stores. Adding to a node a concurrent Delete has marked
// is benign for the same reason Upsert's overwrite is — the add
// linearizes immediately before the delete. Decrement is delta's two's
// complement.
func (t *Thread) AddAt(head pmem.Addr, key, delta uint64) (uint64, bool) {
	if key >= dstruct.KeyMax {
		panic("list: key out of range")
	}
	c := &t.c
	pol := c.Policy
	c.H.Enter()
	for {
		inLink, predLink, curr, curKey := t.find(head, key)
		if curr != pmem.NilAddr && curKey == key {
			// Present: the response depends on the link that proves it.
			c.Transition(predLink)
			vAddr := c.Field(curr, fVal)
			var nv uint64
			if pol.SupportsRMW() {
				nv = pol.FAA(c.T, vAddr, delta, core.P) + delta
			} else {
				for {
					old := pol.Load(c.T, vAddr, core.P)
					nv = (old + delta) & core.PayloadMask
					if pol.CAS(c.T, vAddr, old, nv, core.P) {
						break
					}
				}
			}
			c.Done()
			return nv, true
		}
		// Absent: insert key→delta, exactly as insertAt does.
		c.Transition(inLink, predLink)
		node := c.Ar.Alloc(c.Words(NumFields))
		c.InitNode(node, key, delta, uint64(curr))
		if pol.CAS(c.T, predLink, uint64(curr), uint64(node), core.P) {
			c.Done()
			return delta, false
		}
		c.Ar.Free(node, c.Words(NumFields))
	}
}

// Delete removes key if present. The marking CAS is the linearization
// point and is persisted in every mode; the physical unlink is also
// persisted (see package comment) but its failure is benign — find() of
// any later operation finishes the job.
func (t *Thread) Delete(key uint64) bool { return t.DeleteAt(t.c.Root(), key) }

// DeleteAt runs Delete on the chain rooted at head.
//
//flit:hotpath
func (t *Thread) DeleteAt(head pmem.Addr, key uint64) bool {
	c := &t.c
	pol := c.Policy
	c.H.Enter()
	for {
		_, predLink, curr, curKey := t.find(head, key)
		// Absent: the response rests on the link proving it. Present: the
		// mark depends on curr being reachable — flush the incoming link
		// if a concurrent insert's p-store is still pending.
		c.Transition(predLink)
		if curr == pmem.NilAddr || curKey != key {
			c.Done()
			return false
		}
		nextAddr := c.Field(curr, fNext)
		nextRaw := pol.Load(c.T, nextAddr, c.TravP())
		if dstruct.Marked(nextRaw) {
			continue // someone else is deleting it; re-find helps unlink
		}
		if !pol.CAS(c.T, nextAddr, nextRaw, nextRaw|core.MarkBit, core.P) {
			continue
		}
		// Physical unlink; on failure a traversal will help.
		if pol.CAS(c.T, predLink, uint64(curr), nextRaw, core.P) {
			c.H.Retire(curr, c.Words(NumFields))
		} else {
			t.find(head, key)
		}
		c.Done()
		return true
	}
}

// locate is the read-only walk of Contains and Get: it skips marked nodes
// without unlinking and returns the link word pointing at the first node
// with key >= key (predLink) and that node if it holds key unmarked (0
// otherwise). A marked node holding key is logically deleted: absence
// rests on its mark, which the concurrent Delete may not have persisted
// yet, so locate transitions on it.
//
//flit:hotpath
func (t *Thread) locate(head pmem.Addr, key uint64) (predLink, found pmem.Addr) {
	c := &t.c
	pol := c.Policy
	travP := c.TravP()
	predLink = head
	curr := dstruct.Ptr(pol.Load(c.T, predLink, travP))
	for curr != pmem.NilAddr {
		nextRaw := pol.Load(c.T, c.Field(curr, fNext), travP)
		k := pol.Load(c.T, c.Field(curr, fKey), travP)
		if k >= key {
			if k != key {
				break
			}
			if !dstruct.Marked(nextRaw) {
				return predLink, curr
			}
			c.Transition(c.Field(curr, fNext))
			break
		}
		predLink = c.Field(curr, fNext)
		curr = dstruct.Ptr(nextRaw)
	}
	return predLink, pmem.NilAddr
}

// Contains reports whether key is present.
func (t *Thread) Contains(key uint64) bool { return t.ContainsAt(t.c.Root(), key) }

// ContainsAt runs Contains on the chain rooted at head.
//
//flit:hotpath
func (t *Thread) ContainsAt(head pmem.Addr, key uint64) bool {
	c := &t.c
	c.H.Enter()
	predLink, curr := t.locate(head, key)
	if curr == pmem.NilAddr {
		// Absent: the response depends on the link proving absence.
		c.Transition(predLink)
	} else {
		// Present: it depends on the link to curr and on curr's unmarked
		// next word.
		c.Transition(predLink, c.Field(curr, fNext))
	}
	c.Done()
	return curr != pmem.NilAddr
}

// Get returns the value stored under key, if present.
func (t *Thread) Get(key uint64) (uint64, bool) { return t.GetAt(t.c.Root(), key) }

// GetAt runs Get on the chain rooted at head.
//
//flit:hotpath
func (t *Thread) GetAt(head pmem.Addr, key uint64) (uint64, bool) {
	c := &t.c
	c.H.Enter()
	predLink, curr := t.locate(head, key)
	if curr == pmem.NilAddr {
		c.Transition(predLink)
		c.Done()
		return 0, false
	}
	v := c.Policy.Load(c.T, c.Field(curr, fVal), c.TravP())
	// Present: besides what Contains rests on, the response depends —
	// since Upsert makes it mutable after publish — on the value word,
	// whose re-examining p-load flushes a concurrent overwrite's pending
	// p-store before this Get completes.
	c.Transition(predLink, c.Field(curr, fNext), c.Field(curr, fVal))
	c.Done()
	return v, true
}

// Snapshot returns the unmarked key→value pairs, reading the volatile
// state directly (test helper; callers must be quiescent).
func (l *List) Snapshot() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	pairs, _, _ := GatherAt(&l.cfg, l.cfg.Root(), nil)
	for _, p := range pairs {
		out[p.Key] = p.Val
	}
	return out
}
