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
	l := &List{cfg: cfg, dom: reclaim.NewDomain()}
	t := cfg.Heap.Mem().RegisterThread()
	cfg.Policy.StorePrivate(t, cfg.Root(), 0, core.P)
	t.Release()
	return l
}

// Attach wraps an existing structure (e.g. one found in recovered memory)
// without touching the root.
func Attach(cfg dstruct.Config) *List {
	return &List{cfg: cfg, dom: reclaim.NewDomain()}
}

// Name returns "list".
func (l *List) Name() string { return "list" }

// Thread is a per-goroutine handle to the list.
type Thread struct {
	l *List
	// cfg is the list's config, with Policy possibly overridden per
	// thread (ThreadOpts.Policy): the group-commit batch sessions run
	// the same structure under a deferred-persistence wrapper while
	// plain sessions keep the base policy.
	cfg dstruct.Config
	c   dstruct.Ctx
	// ownsT/ownsAr record whether Open registered the pmem thread/arena
	// itself (nil ThreadOpts fields), in which case Close releases them;
	// resources passed in by the caller stay the caller's to release.
	ownsT  bool
	ownsAr bool
}

// NewThread creates a standalone per-goroutine handle — the Set
// interface's spelling of Open(ThreadOpts{}).
func (l *List) NewThread() dstruct.SetThread { return l.Open(dstruct.ThreadOpts{}) }

// Open creates a per-goroutine handle configured by o: zero fields take
// the list's defaults (fresh pmem thread, fresh arena, configured
// policy); see dstruct.ThreadOpts for what each override means. Only the
// epoch-reclamation handle is never shared — each structure owns its
// domain.
func (l *List) Open(o dstruct.ThreadOpts) *Thread {
	cfg := l.cfg
	if o.Policy != nil {
		cfg.Policy = o.Policy
	}
	t := o.T
	ownsT := false
	if t == nil {
		t = cfg.Heap.Mem().RegisterThread()
		ownsT = true
	}
	ar := o.Arena
	ownsAr := false
	if ar == nil {
		ar = cfg.Heap.NewArena()
		ownsAr = true
	}
	return &Thread{
		l: l, cfg: cfg, ownsT: ownsT, ownsAr: ownsAr,
		c: dstruct.Ctx{T: t, Ar: ar, H: l.dom.NewHandleOwned(ar, t)},
	}
}

// Close releases the handle's per-structure resources: the reclamation
// handle deregisters from the list's domain (retirees still in their
// grace period become domain orphans), and a pmem thread or arena the
// handle registered itself is released for reuse. Idempotent; the handle
// must not be used afterwards.
func (t *Thread) Close() {
	t.c.H.Close()
	if t.ownsAr {
		t.c.Ar.Release()
	}
	if t.ownsT {
		t.c.T.Release()
	}
}

// Ctx exposes the thread's execution context (stats, crash injection).
func (t *Thread) Ctx() dstruct.Ctx { return t.c }

// travP reports whether traversal loads are p-instructions (Automatic) or
// v-instructions (NVTraverse, Manual).
func (t *Thread) travP() bool { return t.cfg.Mode == dstruct.Automatic }

// find locates the first node with key >= key, physically unlinking any
// marked node it passes (Harris's helping). It returns the address of the
// link word pointing at curr (predLink), curr itself (0 if none), and
// curr's key.
//
//flit:hotpath
func (t *Thread) find(head pmem.Addr, key uint64) (predLink pmem.Addr, curr pmem.Addr, curKey uint64) {
	cfg := &t.cfg
	pol := cfg.Policy
	travP := t.travP()
retry:
	predLink = head
	curr = dstruct.Ptr(pol.Load(t.c.T, predLink, travP))
	for curr != pmem.NilAddr {
		nextRaw := pol.Load(t.c.T, cfg.Field(curr, fNext), travP)
		if dstruct.Marked(nextRaw) {
			// curr is logically deleted: unlink it. The unlink is a
			// p-instruction in every mode — curr is retired immediately
			// after, so its unreachability must persist before reuse.
			succ := dstruct.Ptr(nextRaw)
			if !pol.CAS(t.c.T, predLink, uint64(curr), uint64(succ), core.P) {
				goto retry
			}
			t.c.H.Retire(curr, cfg.Words(NumFields))
			curr = succ
			continue
		}
		k := pol.Load(t.c.T, cfg.Field(curr, fKey), travP)
		if k >= key {
			return predLink, curr, k
		}
		predLink = cfg.Field(curr, fNext)
		curr = dstruct.Ptr(nextRaw)
	}
	return predLink, pmem.NilAddr, 0
}

// transition re-examines a link with a p-load at the traversal/critical
// boundary (NVTraverse's transition; Manual needs the same flush on the
// links its return value depends on). Under Automatic it is redundant and
// skipped — every load already was a p-load.
func (t *Thread) transition(a pmem.Addr) {
	if t.cfg.Mode != dstruct.Automatic {
		t.cfg.Policy.Load(t.c.T, a, core.P)
	}
}

// initNode writes a fresh node's fields. Automatic mode cannot know the
// node is still private — the C++ library instruments every persist<>
// access identically — so each field is a shared p-store. The optimized
// modes use private v-stores plus one batched write-back per line, fenced
// implicitly by the leading fence of the linking p-CAS.
func (t *Thread) initNode(node pmem.Addr, key, val uint64, nextRaw uint64) {
	cfg := &t.cfg
	pol := cfg.Policy
	if cfg.Mode == dstruct.Automatic {
		pol.Store(t.c.T, cfg.Field(node, fKey), key, core.P)
		pol.Store(t.c.T, cfg.Field(node, fVal), val, core.P)
		pol.Store(t.c.T, cfg.Field(node, fNext), nextRaw, core.P)
		return
	}
	pol.StorePrivate(t.c.T, cfg.Field(node, fKey), key, core.V)
	pol.StorePrivate(t.c.T, cfg.Field(node, fVal), val, core.V)
	pol.StorePrivate(t.c.T, cfg.Field(node, fNext), nextRaw, core.V)
	pol.PersistObject(t.c.T, node, cfg.Words(NumFields))
}

// Insert adds key→val if absent.
func (t *Thread) Insert(key, val uint64) bool { return t.InsertAt(t.cfg.Root(), key, val) }

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
	cfg := &t.cfg
	pol := cfg.Policy
	t.c.H.Enter()
	for {
		predLink, curr, curKey := t.find(head, key)
		if curr != pmem.NilAddr && curKey == key {
			// Present: the response depends on the link that proves it.
			t.transition(predLink)
			if upsert {
				pol.Store(t.c.T, cfg.Field(curr, fVal), val, core.P)
			}
			pol.Complete(t.c.T)
			t.c.H.Exit()
			return false
		}
		t.transition(predLink)
		node := t.c.Ar.Alloc(cfg.Words(NumFields))
		t.initNode(node, key, val, uint64(curr))
		if pol.CAS(t.c.T, predLink, uint64(curr), uint64(node), core.P) {
			pol.Complete(t.c.T)
			t.c.H.Exit()
			return true
		}
		// Lost the race; the node was never shared, reuse it directly.
		t.c.Ar.Free(node, cfg.Words(NumFields))
	}
}

// Upsert inserts key→val if key is absent, or durably overwrites the value
// in place if present. It reports whether a new node was inserted.
func (t *Thread) Upsert(key, val uint64) bool { return t.UpsertAt(t.cfg.Root(), key, val) }

// UpsertAt runs Upsert on the chain rooted at head. The in-place update is
// a shared p-store on the value word: its leading fence orders the loads
// that located the node, and the value is persisted before the operation
// completes, so recovery observes either the old or the new value, never a
// torn state. Overwriting a node that a concurrent Delete has already
// marked is benign — the upsert linearizes immediately before the delete —
// and writing a node another thread has retired is safe inside the epoch,
// which blocks reuse until every current operation exits.
func (t *Thread) UpsertAt(head pmem.Addr, key, val uint64) bool {
	return t.insertAt(head, key, val, true)
}

// Add atomically adds delta to key's value (fetch-and-add semantics,
// wrapping at 2^64), inserting key→delta if absent. It returns the
// post-add value and whether the key was already present.
func (t *Thread) Add(key, delta uint64) (uint64, bool) { return t.AddAt(t.cfg.Root(), key, delta) }

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
	cfg := &t.cfg
	pol := cfg.Policy
	t.c.H.Enter()
	for {
		predLink, curr, curKey := t.find(head, key)
		if curr != pmem.NilAddr && curKey == key {
			// Present: the response depends on the link that proves it.
			t.transition(predLink)
			vAddr := cfg.Field(curr, fVal)
			var nv uint64
			if pol.SupportsRMW() {
				nv = pol.FAA(t.c.T, vAddr, delta, core.P) + delta
			} else {
				for {
					old := pol.Load(t.c.T, vAddr, core.P)
					nv = (old + delta) & core.PayloadMask
					if pol.CAS(t.c.T, vAddr, old, nv, core.P) {
						break
					}
				}
			}
			pol.Complete(t.c.T)
			t.c.H.Exit()
			return nv, true
		}
		// Absent: insert key→delta through the shared insert protocol.
		t.transition(predLink)
		node := t.c.Ar.Alloc(cfg.Words(NumFields))
		t.initNode(node, key, delta, uint64(curr))
		if pol.CAS(t.c.T, predLink, uint64(curr), uint64(node), core.P) {
			pol.Complete(t.c.T)
			t.c.H.Exit()
			return delta, false
		}
		// Lost the race; the node was never shared, reuse it directly.
		t.c.Ar.Free(node, cfg.Words(NumFields))
	}
}

// Delete removes key if present. The marking CAS is the linearization
// point and is persisted in every mode; the physical unlink is also
// persisted (see package comment) but its failure is benign — find() of
// any later operation finishes the job.
func (t *Thread) Delete(key uint64) bool { return t.DeleteAt(t.cfg.Root(), key) }

// DeleteAt runs Delete on the chain rooted at head.
//
//flit:hotpath
func (t *Thread) DeleteAt(head pmem.Addr, key uint64) bool {
	cfg := &t.cfg
	pol := cfg.Policy
	t.c.H.Enter()
	for {
		predLink, curr, curKey := t.find(head, key)
		if curr == pmem.NilAddr || curKey != key {
			t.transition(predLink)
			pol.Complete(t.c.T)
			t.c.H.Exit()
			return false
		}
		nextAddr := cfg.Field(curr, fNext)
		// The mark depends on curr being reachable: flush the incoming
		// link if a concurrent insert's p-store is still pending.
		t.transition(predLink)
		nextRaw := pol.Load(t.c.T, nextAddr, t.travP())
		if dstruct.Marked(nextRaw) {
			continue // someone else is deleting it; re-find helps unlink
		}
		if !pol.CAS(t.c.T, nextAddr, nextRaw, nextRaw|core.MarkBit, core.P) {
			continue
		}
		// Physical unlink; on failure a traversal will help.
		if pol.CAS(t.c.T, predLink, uint64(curr), nextRaw, core.P) {
			t.c.H.Retire(curr, cfg.Words(NumFields))
		} else {
			t.find(head, key)
		}
		pol.Complete(t.c.T)
		t.c.H.Exit()
		return true
	}
}

// Contains reports whether key is present. Read-only: it skips marked
// nodes without unlinking.
func (t *Thread) Contains(key uint64) bool { return t.ContainsAt(t.cfg.Root(), key) }

// ContainsAt runs Contains on the chain rooted at head.
//
//flit:hotpath
func (t *Thread) ContainsAt(head pmem.Addr, key uint64) bool {
	cfg := &t.cfg
	pol := cfg.Policy
	travP := t.travP()
	t.c.H.Enter()
	predLink := head
	curr := dstruct.Ptr(pol.Load(t.c.T, predLink, travP))
	var nextRaw uint64
	for curr != pmem.NilAddr {
		nextRaw = pol.Load(t.c.T, cfg.Field(curr, fNext), travP)
		k := pol.Load(t.c.T, cfg.Field(curr, fKey), travP)
		if k >= key {
			if k == key && !dstruct.Marked(nextRaw) {
				// Present: the response depends on the link to curr and on
				// curr's unmarked next word.
				t.transition(predLink)
				t.transition(cfg.Field(curr, fNext))
				pol.Complete(t.c.T)
				t.c.H.Exit()
				return true
			}
			if k == key {
				// Logically deleted: absence rests on the mark, which the
				// concurrent Delete may not have persisted yet.
				t.transition(cfg.Field(curr, fNext))
			}
			break
		}
		predLink = cfg.Field(curr, fNext)
		curr = dstruct.Ptr(nextRaw)
	}
	// Absent: the response depends on the link proving absence.
	t.transition(predLink)
	pol.Complete(t.c.T)
	t.c.H.Exit()
	return false
}

// Get returns the value stored under key, if present.
func (t *Thread) Get(key uint64) (uint64, bool) { return t.GetAt(t.cfg.Root(), key) }

// GetAt runs Get on the chain rooted at head.
//
//flit:hotpath
func (t *Thread) GetAt(head pmem.Addr, key uint64) (uint64, bool) {
	cfg := &t.cfg
	pol := cfg.Policy
	travP := t.travP()
	t.c.H.Enter()
	predLink := head
	curr := dstruct.Ptr(pol.Load(t.c.T, predLink, travP))
	for curr != pmem.NilAddr {
		nextRaw := pol.Load(t.c.T, cfg.Field(curr, fNext), travP)
		k := pol.Load(t.c.T, cfg.Field(curr, fKey), travP)
		if k >= key {
			if k == key && !dstruct.Marked(nextRaw) {
				v := pol.Load(t.c.T, cfg.Field(curr, fVal), travP)
				// Present: the response depends on the link to curr, on
				// curr's unmarked next word, and — since Upsert makes it
				// mutable after publish — on the value word, whose
				// re-examining p-load flushes a concurrent overwrite's
				// pending p-store before this Get completes.
				t.transition(predLink)
				t.transition(cfg.Field(curr, fNext))
				t.transition(cfg.Field(curr, fVal))
				pol.Complete(t.c.T)
				t.c.H.Exit()
				return v, true
			}
			if k == key {
				// Logically deleted: absence rests on the mark, which the
				// concurrent Delete may not have persisted yet.
				t.transition(cfg.Field(curr, fNext))
			}
			break
		}
		predLink = cfg.Field(curr, fNext)
		curr = dstruct.Ptr(nextRaw)
	}
	// Absent: the response depends on the link proving absence.
	t.transition(predLink)
	pol.Complete(t.c.T)
	t.c.H.Exit()
	return 0, false
}

// Snapshot returns the unmarked key→value pairs, reading the volatile
// state directly (test helper; callers must be quiescent).
func (l *List) Snapshot() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for _, p := range GatherAt(&l.cfg, l.cfg.Root(), nil) {
		out[p.Key] = p.Val
	}
	return out
}
