// Package pheap is a persistent-heap allocator over simulated NVRAM, the
// stand-in for PMDK's libvmmalloc used in the paper's evaluation. Objects
// live inside pmem and are referenced by word offsets (pmem.Addr), exactly
// how persistent heaps represent pointers; offset 0 is nil.
//
// Like libvmmalloc, allocator *metadata* is volatile: free lists and bump
// pointers do not survive a crash, and blocks held by in-flight operations
// at crash time leak. Data structures recover from their persistent roots;
// the harness carries the heap watermark across a crash so post-recovery
// allocations never overwrite surviving objects.
//
// Allocation is scalable: each thread owns an Arena that carves thread-
// local chunks off a single global atomic bump pointer and recycles freed
// blocks through per-size free lists, so the hot path is contention-free.
package pheap

import (
	"fmt"
	"sync"
	"sync/atomic"

	"flit/internal/pmem"
)

const (
	// NumRoots is the default number of well-known persistent root slots.
	// Roots live at fixed addresses so recovery can find data structures;
	// multi-region layouts (one shard per root, as in internal/store) ask
	// for more via NewWithRoots.
	NumRoots = 16
	// MaxRoots bounds configurable root regions.
	MaxRoots = 1 << 16
	// rootBase is the address of root slot 0. Line 0 (words 0..7) is
	// reserved so that address 0 stays an unambiguous nil. Root slots are
	// spaced two words apart so the word after each root is free for the
	// flit-adjacent counter placement.
	rootBase   = pmem.WordsPerLine
	rootStride = 2
	// heapBase is the first allocatable word of a default-layout heap.
	heapBase = rootBase + rootStride*NumRoots
	// chunkWords is the size of a thread-local allocation chunk.
	chunkWords = 4096
	// maxAlloc is the largest supported object size in words.
	maxAlloc = 4 << 20 // large enough for bucket arrays of million-key tables
)

// heapBaseFor returns the first allocatable word past a root region of the
// given size, line-aligned: every chunk the bump pointer hands out must
// stay line-aligned or Arena.Alloc's alignment step could never fit a
// chunk-sized line-aligned object. Root slot addresses do not depend on
// the region size, so a recovery that only knows where slot 0 lives can
// probe it before the full layout is known.
func heapBaseFor(roots int) uint64 {
	base := uint64(rootBase + rootStride*roots)
	return (base + pmem.WordsPerLine - 1) &^ uint64(pmem.WordsPerLine-1)
}

// Heap manages allocation of persistent objects inside a pmem.Memory.
type Heap struct {
	mem   *pmem.Memory
	roots int
	bump  atomic.Uint64 // next unallocated word

	// central holds free blocks and chunk remainders surrendered by
	// released arenas, so memory recycled by a session outlives the
	// session: without it, per-session free lists would die with their
	// arenas and a connection churn would grow the watermark without
	// bound even though every delete freed its node.
	//
	// depotBlocks and depotExtents count, under centralMu, the blocks and
	// extents held, so that a take from an empty depot — every bump
	// allocation until some arena is released — skips the heap-global
	// mutex. One racing a Release may miss its blocks; the next finds them.
	centralMu    sync.Mutex
	central      map[int][]pmem.Addr // size class -> surrendered blocks
	extents      []extent            // surrendered partial chunks
	depotBlocks  atomic.Int64
	depotExtents atomic.Int64

	// poison, when armed, stamps every freed block's words (volatile
	// layer only) so a use-after-free dereference trips deterministically
	// — the ABA battery's detector.
	poisonOn  atomic.Bool
	poisonVal uint64
}

// extent is an unconsumed tail of a released arena's bump chunk.
type extent struct {
	start, end uint64
}

// New creates a heap covering all of mem past the default root region.
func New(mem *pmem.Memory) *Heap { return NewWithRoots(mem, NumRoots) }

// NewWithRoots creates a heap whose root region holds the given number of
// slots — the multi-region layout used by sharded services, which anchor
// each shard (plus a superblock) at its own root.
func NewWithRoots(mem *pmem.Memory, roots int) *Heap {
	h := &Heap{mem: mem, roots: clampRoots(roots)}
	h.bump.Store(heapBaseFor(h.roots))
	return h
}

// Recover rebuilds a default-layout heap on recovered memory. watermark
// must be at least the pre-crash Watermark so new allocations cannot
// clobber objects that survived; blocks that were free before the crash
// leak, as they do under libvmmalloc.
func Recover(mem *pmem.Memory, watermark uint64) *Heap {
	return RecoverWithRoots(mem, watermark, NumRoots)
}

// RecoverWithRoots rebuilds a heap with a custom root-region size (see
// NewWithRoots) on recovered memory.
func RecoverWithRoots(mem *pmem.Memory, watermark uint64, roots int) *Heap {
	h := &Heap{mem: mem, roots: clampRoots(roots)}
	if base := heapBaseFor(h.roots); watermark < base {
		watermark = base
	}
	h.bump.Store(watermark)
	return h
}

func clampRoots(roots int) int {
	if roots < 1 {
		roots = 1
	}
	if roots > MaxRoots {
		panic(fmt.Sprintf("pheap: %d root slots exceeds max %d", roots, MaxRoots))
	}
	return roots
}

// Mem returns the underlying memory.
func (h *Heap) Mem() *pmem.Memory { return h.mem }

// Watermark returns the high-water mark of allocation, for carrying across
// a simulated crash.
func (h *Heap) Watermark() uint64 { return h.bump.Load() }

// RaiseWatermark moves the bump pointer up to w, rounded up to a whole
// line (chunks stay line-aligned), unless it is already there: no later
// allocation hands out a word below w. Recovery calls it before it
// allocates, for the surviving objects it keeps where they lie — a stale
// carried watermark need not cover them.
func (h *Heap) RaiseWatermark(w uint64) {
	w = (w + pmem.WordsPerLine - 1) &^ uint64(pmem.WordsPerLine-1)
	for {
		old := h.bump.Load()
		if old >= w || h.bump.CompareAndSwap(old, w) {
			return
		}
	}
}

// NumRootSlots returns the size of this heap's root region.
func (h *Heap) NumRootSlots() int { return h.roots }

// Root returns the address of persistent root slot i.
func (h *Heap) Root(i int) pmem.Addr {
	if i < 0 || i >= h.roots {
		panic(fmt.Sprintf("pheap: root index %d out of range [0,%d)", i, h.roots))
	}
	return pmem.Addr(rootBase + rootStride*i)
}

// grabChunk advances the global bump pointer by at least n words and
// returns the chunk's bounds.
func (h *Heap) grabChunk(n int) (start, end uint64) {
	size := uint64(chunkWords)
	if uint64(n) > size {
		size = uint64(n)
	}
	start = h.bump.Add(size) - size
	end = start + size
	if end > uint64(h.mem.Words()) {
		panic(fmt.Sprintf("pheap: out of simulated persistent memory (need %d words past %d, capacity %d); size the pmem.Config for the workload",
			size, start, h.mem.Words()))
	}
	return start, end
}

// sizeClass rounds a request to its allocation class: powers of two up to
// a cache line, then whole lines. This mirrors what jemalloc-style
// persistent allocators do and keeps sub-line objects from straddling
// cache lines, which would distort flush counts.
func sizeClass(n int) int {
	switch {
	case n <= 0:
		panic("pheap: non-positive allocation")
	case n <= 1:
		return 1
	case n <= 2:
		return 2
	case n <= 4:
		return 4
	case n <= pmem.WordsPerLine:
		return pmem.WordsPerLine
	case n <= maxAlloc:
		return (n + pmem.WordsPerLine - 1) &^ (pmem.WordsPerLine - 1)
	default:
		panic(fmt.Sprintf("pheap: allocation of %d words exceeds max %d", n, maxAlloc))
	}
}

// Arena is a thread-private allocation context. Each worker goroutine must
// use its own Arena.
type Arena struct {
	h          *Heap
	chunk      uint64
	chunkEnd   uint64
	free       map[int][]pmem.Addr // size class -> recycled blocks
	allocs     uint64
	frees      uint64
	recycleHit uint64
	released   bool
}

// NewArena creates a thread-private allocator on h.
func (h *Heap) NewArena() *Arena {
	return &Arena{h: h, free: make(map[int][]pmem.Addr)}
}

// Alloc returns the address of n contiguous words of persistent memory,
// aligned so that sub-line objects never straddle a cache line. The words
// contain whatever a previously freed block left behind; callers must
// initialize every field they will read (data structures do, since nodes
// are fully initialized before being linked in).
func (a *Arena) Alloc(n int) pmem.Addr {
	c := sizeClass(n)
	a.allocs++
	if fl := a.free[c]; len(fl) > 0 {
		p := fl[len(fl)-1]
		a.free[c] = fl[:len(fl)-1]
		a.recycleHit++
		return p
	}
	if p, ok := a.h.centralTake(c); ok {
		a.recycleHit++
		return p
	}
	align := uint64(c)
	if align > pmem.WordsPerLine {
		align = pmem.WordsPerLine
	}
	for {
		start := (a.chunk + align - 1) &^ (align - 1)
		if start+uint64(c) <= a.chunkEnd {
			a.carve(a.chunk, start) // alignment hole, if any
			a.chunk = start + uint64(c)
			return pmem.Addr(start)
		}
		a.surrenderTail()
		if s, e, ok := a.h.extentTake(uint64(c), align); ok {
			a.chunk, a.chunkEnd = s, e
			continue
		}
		a.chunk, a.chunkEnd = a.h.grabChunk(c)
	}
}

// surrenderTail parks the unconsumed tail of the arena's bump chunk
// before the arena abandons it for a new one: line-sized-or-larger tails
// go to the heap's extent list, smaller ones are carved onto the arena's
// free lists, so session churn cannot grow the watermark tail by tail.
func (a *Arena) surrenderTail() {
	start, end := a.chunk, a.chunkEnd
	a.chunk, a.chunkEnd = 0, 0
	if end <= start {
		return
	}
	if end-start >= pmem.WordsPerLine {
		h := a.h
		h.centralMu.Lock()
		h.extents = append(h.extents, extent{start, end})
		h.depotExtents.Add(1)
		h.centralMu.Unlock()
		return
	}
	a.carve(start, end)
}

// carve splits the sub-line range [start,end) into aligned size-class
// blocks on the arena's free lists, so alignment holes and chunk-tail
// fragments stay allocatable instead of leaking.
func (a *Arena) carve(start, end uint64) {
	for start < end {
		c := uint64(1)
		for c*2 <= end-start && start%(c*2) == 0 && c*2 <= pmem.WordsPerLine {
			c *= 2
		}
		a.free[int(c)] = append(a.free[int(c)], pmem.Addr(start))
		start += c
	}
}

// centralTake pops one surrendered block of size class c, if any.
func (h *Heap) centralTake(c int) (pmem.Addr, bool) {
	if h.depotBlocks.Load() == 0 {
		return 0, false
	}
	h.centralMu.Lock()
	defer h.centralMu.Unlock()
	fl := h.central[c]
	if len(fl) == 0 {
		return 0, false
	}
	p := fl[len(fl)-1]
	h.central[c] = fl[:len(fl)-1]
	h.depotBlocks.Add(-1)
	return p, true
}

// extentTake pops a surrendered chunk tail that can hold an aligned
// object of n words, if any.
func (h *Heap) extentTake(n, align uint64) (start, end uint64, ok bool) {
	if h.depotExtents.Load() == 0 {
		return 0, 0, false
	}
	h.centralMu.Lock()
	defer h.centralMu.Unlock()
	for i, x := range h.extents {
		s := (x.start + align - 1) &^ (align - 1)
		if s+n <= x.end {
			h.extents = append(h.extents[:i], h.extents[i+1:]...)
			h.depotExtents.Add(-1)
			return x.start, x.end, true
		}
	}
	return 0, 0, false
}

// Free recycles a block of n words previously returned by Alloc. The block
// joins this arena's free list regardless of which arena allocated it.
//
// Note on safety: Free reuses immediately and is only safe for blocks no
// other thread can still reference (never-shared nodes, lock-protected
// removals). Lock-free structures must route shared blocks through
// reclaim.Handle.Retire, which defers this call past an epoch grace
// period — the role ssmem plays in the paper's artifact.
func (a *Arena) Free(p pmem.Addr, n int) {
	c := sizeClass(n)
	a.frees++
	if a.h.poisonOn.Load() {
		for i := 0; i < c; i++ {
			a.h.mem.SetVolatileWord(p+pmem.Addr(i), a.h.poisonVal)
		}
	}
	a.free[c] = append(a.free[c], p)
}

// Release surrenders the arena's recycled blocks and the unconsumed tail
// of its bump chunk to the heap's central lists, where future arenas can
// reuse them. Call it when the owning session closes: it is what keeps
// the heap watermark bounded under session churn. Idempotent; the arena
// must not allocate afterwards.
func (a *Arena) Release() {
	if a.released {
		return
	}
	a.released = true
	a.surrenderTail() // sub-line tails carve onto a.free, larger go to extents
	h := a.h
	h.centralMu.Lock()
	if len(a.free) > 0 {
		if h.central == nil {
			h.central = make(map[int][]pmem.Addr)
		}
		for c, fl := range a.free {
			h.central[c] = append(h.central[c], fl...)
			h.depotBlocks.Add(int64(len(fl)))
		}
	}
	h.centralMu.Unlock()
	a.free = nil
}

// SetFreePoison arms (or, with on=false, disarms) free-block poisoning:
// every word of every subsequently freed block is overwritten with v in
// the volatile layer. With epoch reclamation working correctly no pinned
// reader can ever observe the poison; the ABA battery relies on that. Set
// only while allocator users are quiescent.
func (h *Heap) SetFreePoison(v uint64, on bool) {
	h.poisonVal = v
	h.poisonOn.Store(on)
}

// CentralStats reports the central recycling depot's content: blocks on
// the size-class lists and words covered by surrendered chunk tails
// (tests and diagnostics).
func (h *Heap) CentralStats() (blocks int, extentWords uint64) {
	h.centralMu.Lock()
	defer h.centralMu.Unlock()
	for _, fl := range h.central {
		blocks += len(fl)
	}
	for _, x := range h.extents {
		extentWords += x.end - x.start
	}
	return blocks, extentWords
}

// AllocStats reports allocation counters (tests and diagnostics).
func (a *Arena) AllocStats() (allocs, frees, recycled uint64) {
	return a.allocs, a.frees, a.recycleHit
}
