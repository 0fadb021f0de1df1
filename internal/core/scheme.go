package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"flit/internal/pmem"
)

// CeilPow2 returns the smallest power of two >= n (and 1 for n < 1) —
// the table-sizing rule shared by the flit-counter schemes, the durable
// hash structures and the store's bucket layout.
func CeilPow2(n int) int {
	if n < 2 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Pow2Sizing returns CeilPow2(n) together with the right-shift that maps
// a 64-bit hash onto [0, size) by its top bits (64 for size 1, where any
// shift of a 64-bit value yields index 0).
func Pow2Sizing(n int) (size int, shift uint) {
	if n < 2 {
		return 1, 64
	}
	l := bits.Len(uint(n - 1))
	return 1 << l, 64 - uint(l)
}

// CounterScheme assigns a flit-counter to each memory location (§5.1 of
// the paper). Counters live in volatile memory: their contents are
// meaningless after a crash (new processes are spawned), and sharing one
// counter among many locations is safe — it can only cause extra flushes,
// never missed ones.
type CounterScheme interface {
	// Inc tags location a: a p-store on a is pending.
	Inc(t *pmem.Thread, a pmem.Addr)
	// Dec untags location a after the pending p-store persisted.
	Dec(t *pmem.Thread, a pmem.Addr)
	// Tagged reports whether a p-store on a may still be un-persisted.
	Tagged(t *pmem.Thread, a pmem.Addr) bool
	// Name identifies the scheme in reports.
	Name() string
}

// AdjacentStride is the field stride data structures use with the Adjacent
// scheme: every persisted word is followed by its counter word, doubling
// object size — the layout cost §6.6 observes on the skiplist.
const AdjacentStride = 2

// Adjacent places each flit-counter in the word immediately after its data
// word (the "flit-adjacent" variant). Counter accesses therefore hit the
// same cache line as the data — free when the line is hot, but subject to
// the clwb-invalidation miss on the decrement, the effect behind the extra
// flushes in Figure 9.
//
// The counter word lives in simulated pmem but is never flushed; its
// post-crash content is irrelevant (a stale non-zero counter merely causes
// spurious flushes, per Lemma 5.1's safety argument).
type Adjacent struct{}

// Inc increments the counter word at a+1.
func (Adjacent) Inc(t *pmem.Thread, a pmem.Addr) { t.FAA(a+1, 1) }

// Dec decrements the counter word at a+1.
func (Adjacent) Dec(t *pmem.Thread, a pmem.Addr) { t.FAA(a+1, ^uint64(0)) }

// Tagged reports whether the counter word at a+1 is non-zero.
func (Adjacent) Tagged(t *pmem.Thread, a pmem.Addr) bool { return t.Load(a+1) != 0 }

// Name returns "flit-adjacent".
func (Adjacent) Name() string { return "flit-adjacent" }

// hashAddr spreads addresses over table indices (Fibonacci hashing).
func hashAddr(a pmem.Addr, shift uint) uint64 {
	return (uint64(a) * 0x9E3779B97F4A7C15) >> shift
}

// HashTable is the "flit-HT" variant: a fixed-size table of word-wide
// counters indexed by a hash of the address. Different locations may share
// a counter (extra flushes at worst); distinct counters in the same real
// cache line may false-share (the coherence-miss collapse the paper shows
// for a 4 KB table at ≥5% updates).
//
// The index is line-local: hash(line of a)·8 + word-in-line of a. Still
// one counter per word, but the eight counters of a data line — so the
// key/val/next counters of a node — fill one 64-byte counter line, and an
// operation that walks a node's words touches one counter line, not
// three. Unrelated addresses collide as under a per-word hash: two words
// of different lines share a counter with probability 1/entries (their
// lines hash to the same group, 8/entries, and their word offsets agree,
// 1/8) and a counter cache line with probability 8/entries. Only words
// of one data line, which share that line anyway, are newly neighbours.
type HashTable struct {
	counters []uint64
	shift    uint
	bytes    int
}

// NewHashTable builds a table of the given size in bytes (rounded up to a
// power of two; one 8-byte counter per entry).
func NewHashTable(bytes int) *HashTable {
	if bytes < 64 {
		bytes = 64
	}
	entries, shift := Pow2Sizing(bytes / 8)
	return &HashTable{counters: make([]uint64, entries), bytes: entries * 8, shift: shift}
}

// index maps a to its counter: the line's hash picks an aligned group of
// WordsPerLine counters (the table never has fewer), the word offset picks
// the counter inside it.
//
//flit:hotpath
func (h *HashTable) index(a pmem.Addr) uint64 {
	const wordMask = pmem.WordsPerLine - 1
	return hashAddr(pmem.Addr(pmem.LineOf(a)), h.shift)&^wordMask | uint64(a)&wordMask
}

//flit:hotpath
func (h *HashTable) slot(a pmem.Addr) *uint64 { return &h.counters[h.index(a)] }

// Inc increments a's hashed counter.
//
//flit:hotpath
func (h *HashTable) Inc(t *pmem.Thread, a pmem.Addr) { atomic.AddUint64(h.slot(a), 1) }

// Dec decrements a's hashed counter.
//
//flit:hotpath
func (h *HashTable) Dec(t *pmem.Thread, a pmem.Addr) { atomic.AddUint64(h.slot(a), ^uint64(0)) }

// Tagged reports whether a's hashed counter is non-zero.
//
//flit:hotpath
func (h *HashTable) Tagged(t *pmem.Thread, a pmem.Addr) bool {
	return atomic.LoadUint64(h.slot(a)) != 0
}

// Name returns e.g. "flit-HT(1MB)".
func (h *HashTable) Name() string { return fmt.Sprintf("flit-HT(%s)", fmtBytes(h.bytes)) }

// PackedHashTable squeezes eight 8-bit flit-counters into each table word
// (§5.1's compaction): 8x the counters per byte, at the cost of more false
// sharing. Eight bits cannot overflow — a counter's value never exceeds
// the number of threads, and machines with >255 simultaneous incrementers
// of one counter are outside the paper's (and this module's) scope.
type PackedHashTable struct {
	words []uint64
	shift uint
	bytes int
}

// NewPackedHashTable builds a packed table of the given size in bytes
// (rounded up to a power of two; one byte per counter).
func NewPackedHashTable(bytes int) *PackedHashTable {
	if bytes < 64 {
		bytes = 64
	}
	n, shift := Pow2Sizing(bytes)
	return &PackedHashTable{words: make([]uint64, n/8), bytes: n, shift: shift}
}

//flit:hotpath
func (h *PackedHashTable) locate(a pmem.Addr) (*uint64, uint) {
	idx := hashAddr(a, h.shift) // byte index in [0, bytes)
	return &h.words[idx/8], uint(idx%8) * 8
}

// add replaces the target byte with (byte+delta) mod 256 under a CAS loop.
// A plain 64-bit add would carry out of the byte and corrupt the neighbor
// counter — the masked replace keeps each byte independent.
//
//flit:hotpath
func (h *PackedHashTable) add(a pmem.Addr, delta uint64) {
	w, sh := h.locate(a)
	for {
		old := atomic.LoadUint64(w)
		b := (old >> sh) & 0xFF
		nw := (old &^ (0xFF << sh)) | (((b + delta) & 0xFF) << sh)
		if atomic.CompareAndSwapUint64(w, old, nw) {
			return
		}
	}
}

// Inc increments a's packed byte counter.
//
//flit:hotpath
func (h *PackedHashTable) Inc(t *pmem.Thread, a pmem.Addr) { h.add(a, 1) }

// Dec decrements a's packed byte counter.
//
//flit:hotpath
func (h *PackedHashTable) Dec(t *pmem.Thread, a pmem.Addr) { h.add(a, 0xFF) /* -1 mod 256 */ }

// Tagged reports whether a's packed byte counter is non-zero.
//
//flit:hotpath
func (h *PackedHashTable) Tagged(t *pmem.Thread, a pmem.Addr) bool {
	w, sh := h.locate(a)
	return (atomic.LoadUint64(w)>>sh)&0xFF != 0
}

// Name returns e.g. "flit-packed(4KB)".
func (h *PackedHashTable) Name() string { return fmt.Sprintf("flit-packed(%s)", fmtBytes(h.bytes)) }

// DirectMap assigns one counter per simulated cache line — the counter
// granularity the paper's conclusion proposes as future work. No hash
// collisions; words on the same line share a counter, so a pending p-store
// tags its whole line.
type DirectMap struct {
	counters []uint64
}

// NewDirectMap builds a per-line counter array covering a memory of the
// given word capacity.
func NewDirectMap(memWords int) *DirectMap {
	return &DirectMap{counters: make([]uint64, (memWords+pmem.WordsPerLine-1)/pmem.WordsPerLine)}
}

//flit:hotpath
func (d *DirectMap) slot(a pmem.Addr) *uint64 { return &d.counters[pmem.LineOf(a)] }

// Inc increments the line counter of a.
//
//flit:hotpath
func (d *DirectMap) Inc(t *pmem.Thread, a pmem.Addr) { atomic.AddUint64(d.slot(a), 1) }

// Dec decrements the line counter of a.
//
//flit:hotpath
func (d *DirectMap) Dec(t *pmem.Thread, a pmem.Addr) { atomic.AddUint64(d.slot(a), ^uint64(0)) }

// Tagged reports whether the line counter of a is non-zero.
//
//flit:hotpath
func (d *DirectMap) Tagged(t *pmem.Thread, a pmem.Addr) bool {
	return atomic.LoadUint64(d.slot(a)) != 0
}

// Name returns "flit-perline".
func (d *DirectMap) Name() string { return "flit-perline" }

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
