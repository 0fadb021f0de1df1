// Package lockmap is a lock-based durable hash map demonstrating the
// paper's §7 point: the P-V Interface captures lock-based algorithms too,
// and instructions inside a critical section are *private* — no other
// thread can access the protected words concurrently — so they skip the
// flit-counters and leading fences entirely. Reads never flush: every
// value behind the lock was persisted by the store that put it there.
//
// The per-bucket lock words are volatile state (never deliberately
// flushed): after a crash, recovery clears them — along with any lock a
// cache eviction happened to persist while held.
//
// Durability discipline inside the critical section, per Condition 4:
// a fresh node is written with private v-stores, its lines are written
// back (PersistObject), a fence orders them, and only then is the linking
// private p-store issued — otherwise an eviction could persist the link
// before the node it points to.
package lockmap

import (
	"math/bits"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/pmem"
)

// Node field indices: key, value, next.
const (
	fKey  = 0
	fVal  = 1
	fNext = 2
	// NumFields is the number of persisted fields per node.
	NumFields = 3
)

// Header layout: field 0 = bucket count; bucket i owns two fields —
// lock at 1+2i (volatile), chain head at 2+2i (persistent).
const fCount = 0

// Map is a durable lock-based hash map.
type Map struct {
	cfg     dstruct.Config
	base    pmem.Addr
	buckets uint64
	shift   uint
}

// New creates a map with the given bucket count (rounded to a power of
// two) anchored at cfg's root slot.
func New(cfg dstruct.Config, buckets int) *Map {
	b := core.CeilPow2(buckets)
	hdr := make([]uint64, 1+2*b) // count, then b open locks and empty chains
	hdr[fCount] = uint64(b)
	return attach(cfg, cfg.Anchor(hdr...), uint64(b))
}

// Attach wraps the map persisted at cfg's root slot.
func Attach(cfg dstruct.Config) *Map {
	mem := cfg.Heap.Mem()
	base := dstruct.Ptr(mem.VolatileWord(cfg.Root()))
	return attach(cfg, base, mem.VolatileWord(cfg.Field(base, fCount)))
}

func attach(cfg dstruct.Config, base pmem.Addr, b uint64) *Map {
	// shift leaves the top log2(b) bits of the multiplicative hash.
	return &Map{cfg: cfg, base: base, buckets: b, shift: uint(64 - bits.Len64(b>>1))}
}

// Name returns "lockmap".
func (m *Map) Name() string { return "lockmap" }

// Buckets returns the bucket count.
func (m *Map) Buckets() int { return int(m.buckets) }

func (m *Map) bucket(key uint64) (lock, head pmem.Addr) {
	h := (key * 0x9E3779B97F4A7C15) >> m.shift
	return m.cfg.Field(m.base, 1+2*int(h)), m.cfg.Field(m.base, 2+2*int(h))
}

// Thread is a per-goroutine handle to the map.
type Thread struct {
	m *Map
	c dstruct.Ctx
}

// NewThread creates a standalone per-goroutine handle — the Set
// interface's spelling of Open(ThreadOpts{}).
func (m *Map) NewThread() dstruct.SetThread { return m.Open(dstruct.ThreadOpts{}) }

// Open creates a per-goroutine handle; see dstruct.ThreadOpts. Nodes are
// freed under the bucket lock, so the handle has no reclamation slot.
func (m *Map) Open(o dstruct.ThreadOpts) *Thread {
	return &Thread{m: m, c: m.cfg.Open(nil, o)}
}

// Close releases the handle; see dstruct.Ctx.Close.
func (t *Thread) Close() { t.c.Close() }

// Ctx exposes the thread's execution context (stats, crash injection).
func (t *Thread) Ctx() *dstruct.Ctx { return &t.c }

// acquire spins on the bucket lock with volatile CAS: the lock word holds
// no durable information.
func (t *Thread) acquire(lock pmem.Addr) {
	for !t.c.Policy.CAS(t.c.T, lock, 0, 1, core.V) {
	}
}

// release writes the lock open with a volatile store.
func (t *Thread) release(lock pmem.Addr) {
	t.c.Policy.Store(t.c.T, lock, 0, core.V)
}

// find walks the chain under the lock. All loads are private: nothing can
// race, and everything reachable was persisted when linked.
func (t *Thread) find(head pmem.Addr, key uint64) (predNext pmem.Addr, node pmem.Addr) {
	c := &t.c
	pol := c.Policy
	predNext = head
	n := dstruct.Ptr(pol.LoadPrivate(c.T, head, core.V))
	for n != pmem.NilAddr {
		if pol.LoadPrivate(c.T, c.Field(n, fKey), core.V) == key {
			return predNext, n
		}
		predNext = c.Field(n, fNext)
		n = dstruct.Ptr(pol.LoadPrivate(c.T, predNext, core.V))
	}
	return predNext, pmem.NilAddr
}

// Insert adds key→val if absent.
func (t *Thread) Insert(key, val uint64) bool {
	if key >= dstruct.KeyMax {
		panic("lockmap: key out of range")
	}
	c := &t.c
	pol := c.Policy
	lock, head := t.m.bucket(key)
	t.acquire(lock)
	_, n := t.find(head, key)
	if n != pmem.NilAddr {
		t.release(lock)
		pol.Complete(c.T)
		return false
	}
	node := c.Ar.Alloc(c.Words(NumFields))
	c.InitPrivate(node, key, val, pol.LoadPrivate(c.T, head, core.V))
	pol.Complete(c.T) // node lines durable before the link can persist
	pol.StorePrivate(c.T, head, uint64(node), core.P)
	t.release(lock)
	pol.Complete(c.T)
	return true
}

// Delete removes key if present. The unlink is a private p-store: it must
// be durable before the node's memory can be reused.
func (t *Thread) Delete(key uint64) bool {
	c := &t.c
	pol := c.Policy
	lock, head := t.m.bucket(key)
	t.acquire(lock)
	predNext, n := t.find(head, key)
	if n == pmem.NilAddr {
		t.release(lock)
		pol.Complete(c.T)
		return false
	}
	succ := pol.LoadPrivate(c.T, c.Field(n, fNext), core.V)
	pol.StorePrivate(c.T, predNext, succ, core.P)
	c.Ar.Free(n, c.Words(NumFields)) // safe: unlink persisted, lock held
	t.release(lock)
	pol.Complete(c.T)
	return true
}

// Contains reports whether key is present — with zero flushes: every link
// it reads was persisted by the private p-store that wrote it.
func (t *Thread) Contains(key uint64) bool {
	lock, head := t.m.bucket(key)
	t.acquire(lock)
	_, n := t.find(head, key)
	t.release(lock)
	t.c.Policy.Complete(t.c.T)
	return n != pmem.NilAddr
}

// Get returns the value stored under key, if present.
func (t *Thread) Get(key uint64) (v uint64, ok bool) {
	c := &t.c
	lock, head := t.m.bucket(key)
	t.acquire(lock)
	if _, n := t.find(head, key); n != pmem.NilAddr {
		v, ok = c.Policy.LoadPrivate(c.T, c.Field(n, fVal), core.V), true
	}
	c.Policy.Complete(c.T)
	t.release(lock)
	return v, ok
}

// Snapshot reads all pairs (test helper; callers quiescent).
func (m *Map) Snapshot() map[uint64]uint64 {
	mem := m.cfg.Heap.Mem()
	out := make(map[uint64]uint64)
	for i := 0; i < int(m.buckets); i++ {
		n := dstruct.Ptr(mem.VolatileWord(m.cfg.Field(m.base, 2+2*i)))
		for n != pmem.NilAddr {
			out[mem.VolatileWord(m.cfg.Field(n, fKey))] = mem.VolatileWord(m.cfg.Field(n, fVal))
			n = dstruct.Ptr(mem.VolatileWord(m.cfg.Field(n, fNext)))
		}
	}
	return out
}

// Recover re-attaches the map persisted at cfg's root slot and clears
// every bucket lock: lock words are volatile, but a background eviction
// may have persisted a held lock — after a crash nobody holds anything.
// Chains are structurally consistent by construction (each insert/delete
// persists a single link word whose target is already durable).
//
//flit:rawpersist lock-word clears are volatile and idempotent across repeated crashes; no flush needed
func Recover(cfg dstruct.Config) *Map {
	m := Attach(cfg)
	t := cfg.Heap.Mem().RegisterThread()
	for i := 0; i < int(m.buckets); i++ {
		t.Store(cfg.Field(m.base, 1+2*i), 0)
	}
	t.Release()
	return m
}
