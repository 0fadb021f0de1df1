// Package hashtable implements the paper's fourth benchmark structure: a
// fixed-size hash table whose buckets are Harris linked lists. Marking and
// unlinking are inherited from the list package and the durability
// transitions from dstruct.Ctx through it; this package adds the
// persistent bucket array.
package hashtable

import (
	"math/bits"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/dstruct/list"
	"flit/internal/pmem"
)

// Header field indices: field 0 holds the bucket count; bucket i's head
// link is field 1+i. The whole header is persisted at construction and
// never modified afterwards.
const fCount = 0

// Table is a durable lock-free hash table.
type Table struct {
	cfg     dstruct.Config
	l       *list.List
	base    pmem.Addr
	buckets uint64
	shift   uint
}

// New creates a table with the given bucket count (rounded up to a power
// of two), anchored at cfg's root slot.
func New(cfg dstruct.Config, buckets int) *Table {
	b := core.CeilPow2(buckets)
	hdr := make([]uint64, 1+b) // count, then b empty bucket heads
	hdr[fCount] = uint64(b)
	return attach(cfg, cfg.Anchor(hdr...), uint64(b))
}

// Attach wraps the table persisted at cfg's root slot (e.g. in recovered
// memory) without modifying it.
func Attach(cfg dstruct.Config) *Table {
	base, b := header(cfg)
	return attach(cfg, base, b)
}

// header reads the persisted table's header address and bucket count.
func header(cfg dstruct.Config) (pmem.Addr, uint64) {
	mem := cfg.Heap.Mem()
	base := dstruct.Ptr(mem.VolatileWord(cfg.Root()))
	return base, mem.VolatileWord(cfg.Field(base, fCount))
}

func attach(cfg dstruct.Config, base pmem.Addr, b uint64) *Table {
	return &Table{cfg: cfg, l: list.Attach(cfg), base: base, buckets: b, shift: shiftFor(b)}
}

// shiftFor is the bucket hash's shift for b buckets: it leaves the top
// log2(b) bits of the multiplicative hash.
func shiftFor(b uint64) uint { return uint(64 - bits.Len64(b>>1)) }

// bucketOf is the table's placement rule (Table.BucketOf).
func bucketOf(key uint64, shift uint) int {
	return int((key * 0x9E3779B97F4A7C15) >> shift)
}

// Buckets returns the bucket count.
func (t *Table) Buckets() int { return int(t.buckets) }

// Base returns the table header's persistent address — the value its
// anchor word holds.
func (t *Table) Base() pmem.Addr { return t.base }

// BucketOf returns the index of the bucket serving key: the table's
// placement rule, exported so a key hash can be tested against it.
func (t *Table) BucketOf(key uint64) int { return bucketOf(key, t.shift) }

// bucketHead returns the address of the bucket link word for key.
func (t *Table) bucketHead(key uint64) pmem.Addr {
	return t.cfg.Field(t.base, 1+t.BucketOf(key))
}

// Thread is a per-goroutine handle to the table.
type Thread struct {
	t  *Table
	lt *list.Thread
}

// NewThread creates a standalone per-goroutine handle — the Set
// interface's spelling of Open(ThreadOpts{}).
func (t *Table) NewThread() dstruct.SetThread { return t.Open(dstruct.ThreadOpts{}) }

// Open creates a per-goroutine handle configured by o (see list.Open and
// dstruct.ThreadOpts): sessions that operate many shard tables from one
// goroutine pass the shared pmem thread and arena; group-commit and
// combining sessions additionally override the policy with a deferred
// wrapper.
func (t *Table) Open(o dstruct.ThreadOpts) *Thread {
	return &Thread{t: t, lt: t.l.Open(o)}
}

// Ctx exposes the thread's execution context (stats, crash injection).
func (th *Thread) Ctx() *dstruct.Ctx { return th.lt.Ctx() }

// Close releases the handle (see dstruct.Ctx.Close). Idempotent.
func (th *Thread) Close() { th.lt.Close() }

// Insert adds key→val if absent.
func (th *Thread) Insert(key, val uint64) bool {
	return th.lt.InsertAt(th.t.bucketHead(key), key, val)
}

// Put inserts key→val, or durably overwrites the value in place when key
// is already present; it reports whether a new key was inserted.
//
//flit:hotpath
func (th *Thread) Put(key, val uint64) bool {
	return th.lt.UpsertAt(th.t.bucketHead(key), key, val)
}

// Add atomically adds delta to key's value, inserting key→delta when
// absent (see list.AddAt for the persistence and wrap-around contract).
// It returns the post-add value and whether the key was already present.
//
//flit:hotpath
func (th *Thread) Add(key, delta uint64) (uint64, bool) {
	return th.lt.AddAt(th.t.bucketHead(key), key, delta)
}

// Delete removes key if present.
//
//flit:hotpath
func (th *Thread) Delete(key uint64) bool {
	return th.lt.DeleteAt(th.t.bucketHead(key), key)
}

// Contains reports whether key is present.
//
//flit:hotpath
func (th *Thread) Contains(key uint64) bool {
	return th.lt.ContainsAt(th.t.bucketHead(key), key)
}

// Get returns the value stored under key, if present.
//
//flit:hotpath
func (th *Thread) Get(key uint64) (uint64, bool) {
	return th.lt.GetAt(th.t.bucketHead(key), key)
}

// Snapshot reads all unmarked pairs (test helper; callers quiescent).
func (t *Table) Snapshot() map[uint64]uint64 {
	var pairs []list.Pair
	for i := 0; i < int(t.buckets); i++ {
		pairs, _, _, _ = list.GatherAt(&t.cfg, t.cfg.Field(t.base, 1+i), pairs, true)
	}
	out := make(map[uint64]uint64, len(pairs))
	for _, p := range pairs {
		out[p.Key] = p.Val
	}
	return out
}

// Recover rebuilds a durably consistent table from the structure persisted
// at cfg's root slot. The bucket array itself survives as-is (it is
// immutable after construction); a clean bucket chain stays where it lies
// and every other one is gathered and re-laid-out, like list recovery.
func Recover(cfg dstruct.Config) *Table {
	r := BeginRecover(cfg, false)
	cfg.Heap.RaiseWatermark(uint64(r.End()))
	r.Complete()
	return Attach(cfg)
}

// Recovery is a two-phase table recovery: BeginRecover walks every bucket
// chain and sorts the buckets into clean ones, already exactly what a
// rebuild would write (list.GatherAt), and dirty ones, whose surviving
// pairs it copies into process memory; Complete rebuilds the dirty chains
// and fences, and keeps the clean ones where they lie. Neither phase reads
// cfg.Policy or attaches the table: the caller attaches it (Attach) once
// Complete has returned, so it may build the policy while the walk runs.
//
// The split exists because recovery may run with a stale allocation
// watermark (the embedding process crashed before it could carry the
// newer one forward). Then the rebuild's fresh nodes can land on addresses
// still holding chains that have not been gathered yet, or chains kept in
// place. Within one table the two phases order the first correctly;
// recoveries sharing one heap (the store's shard-parallel rebuild) must
// additionally barrier between everyone's gather and anyone's rebuild. For
// the second, the heap's watermark must be raised past every recovery's
// End before any of them completes.
type Recovery struct {
	cfg     dstruct.Config
	base    pmem.Addr
	buckets int
	shift   uint
	pairs   []list.Pair
	// dirty lists, ascending, the buckets Complete rebuilds and where in
	// pairs each one's surviving pairs lie; kept counts the pairs of the
	// chains it keeps, and end is one past their highest node.
	dirty []span
	kept  int
	end   pmem.Addr
}

// span is bucket's share of a Recovery's pairs: pairs[lo:hi].
type span struct{ bucket, lo, hi int }

// BeginRecover walks every bucket chain of the table persisted at cfg's
// root slot (phase one; writes nothing). A clean chain is only counted,
// unless all is set: then every bucket's pairs are copied out, for a
// caller that redistributes keys across tables (Pairs, CompleteWith).
func BeginRecover(cfg dstruct.Config, all bool) *Recovery {
	base, b := header(cfg)
	r := &Recovery{cfg: cfg, base: base, buckets: int(b), shift: shiftFor(b)}
	for i := 0; i < r.buckets; i++ {
		lo := len(r.pairs)
		var n int
		var clean bool
		var end pmem.Addr
		r.pairs, n, clean, end = list.GatherAt(&r.cfg, cfg.Field(base, 1+i), r.pairs, all)
		if clean {
			r.kept += n
			r.end = max(r.end, end)
		} else {
			r.dirty = append(r.dirty, span{i, lo, len(r.pairs)})
		}
	}
	return r
}

// End returns one past the highest node of the chains Complete keeps in
// place (0 when there are none): the watermark the table's heap must reach
// before anything allocates.
func (r *Recovery) End() pmem.Addr { return r.end }

// Dirty returns the number of bucket chains Complete rebuilds.
func (r *Recovery) Dirty() int { return len(r.dirty) }

// Pairs returns the gathered pairs, bucket after bucket: the dirty
// buckets' only, or, when BeginRecover was asked for all, the table's
// whole surviving contents, for callers that redistribute keys across
// tables (the store's re-sharding recovery) and rebuild with CompleteWith.
// The slice is the Recovery's own: read-only, and stale once Complete runs.
func (r *Recovery) Pairs() []list.Pair { return r.pairs }

// CompleteWith is Complete with the table's final contents overridden:
// every chain is dirty and rebuilt to hold exactly pairs, partitioned by
// the table's own bucket hash with a stable counting sort (of equal keys
// the last in pairs wins). It is how re-sharding recovery moves keys
// between shards, and may be called again on the same Recovery to rebuild
// the table to a second set of contents.
func (r *Recovery) CompleteWith(pairs []list.Pair) int {
	r.dirty, r.kept = make([]span, r.buckets), 0
	for _, p := range pairs {
		r.dirty[bucketOf(p.Key, r.shift)].hi++
	}
	for i := range r.dirty {
		r.dirty[i].bucket = i
		if i > 0 {
			r.dirty[i].hi += r.dirty[i-1].hi
		}
		r.dirty[i].lo = r.dirty[i].hi
	}
	// Filling each bucket from its end, last pair first, keeps the pairs'
	// order and leaves lo at the bucket's start.
	r.pairs = make([]list.Pair, len(pairs))
	for j := len(pairs) - 1; j >= 0; j-- {
		d := &r.dirty[bucketOf(pairs[j].Key, r.shift)]
		d.lo--
		r.pairs[d.lo] = pairs[j]
	}
	return r.Complete()
}

// Complete rebuilds the dirty bucket chains from the gathered pairs (phase
// two) and keeps the clean ones where they lie, returning the recovered
// table's key count. With no dirty bucket it takes no thread, arena or
// fence. Otherwise two fences: all the new nodes first, then the bucket
// heads that publish them. Under one fence the line holding heads 0–7 —
// queued while bucket 0 was rebuilt — would drain before the nodes of
// buckets 1–7, and a crash in between leaves seven heads pointing at nodes
// the image never received.
//
//flit:rawpersist recovery is single-threaded; one fence persists all rebuilt nodes, a second the heads
func (r *Recovery) Complete() int {
	n := r.kept
	if len(r.dirty) == 0 {
		return n
	}
	cfg := &r.cfg
	t := cfg.Heap.Mem().RegisterThread()
	ar := cfg.Heap.NewArena()
	firsts := make([]pmem.Addr, len(r.dirty))
	for j, d := range r.dirty {
		var k int
		firsts[j], k = list.Rebuild(cfg, t, ar, r.pairs[d.lo:d.hi])
		n += k
	}
	t.PFence()
	for j, d := range r.dirty {
		head := cfg.Field(r.base, 1+d.bucket)
		t.Store(head, uint64(firsts[j]))
		t.PWB(head)
	}
	t.PFence()
	ar.Release()
	t.Release()
	return n
}
