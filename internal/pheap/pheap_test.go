package pheap

import (
	"sync"
	"testing"
	"testing/quick"

	"flit/internal/pmem"
)

func newHeap(words int) *Heap {
	cfg := pmem.DefaultConfig(words)
	cfg.PWBCost, cfg.PFenceCost, cfg.PFenceEntryCost = 0, 0, 0
	return New(pmem.New(cfg))
}

func TestRootsAreFixedAndDisjoint(t *testing.T) {
	h := newHeap(1 << 16)
	seen := map[pmem.Addr]bool{}
	for i := 0; i < NumRoots; i++ {
		r := h.Root(i)
		if r == pmem.NilAddr {
			t.Fatal("root at nil address")
		}
		if seen[r] {
			t.Fatalf("duplicate root address %d", r)
		}
		seen[r] = true
	}
	// Roots must be stable across heap instances (recovery relies on it).
	h2 := newHeap(1 << 16)
	if h.Root(3) != h2.Root(3) {
		t.Fatal("root addresses differ across heaps")
	}
}

func TestRootOutOfRangePanics(t *testing.T) {
	h := newHeap(1 << 12)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range root")
		}
	}()
	h.Root(NumRoots)
}

func TestSizeClasses(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 8: 8, 9: 16, 16: 16, 17: 24, 64: 64}
	for n, want := range cases {
		if got := sizeClass(n); got != want {
			t.Errorf("sizeClass(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestAllocDisjointAndAligned(t *testing.T) {
	h := newHeap(1 << 16)
	a := h.NewArena()
	type block struct {
		p pmem.Addr
		n int
	}
	var blocks []block
	for i, n := range []int{1, 2, 3, 4, 5, 8, 9, 16, 40, 1, 7, 8, 2} {
		p := a.Alloc(n)
		if p == pmem.NilAddr {
			t.Fatal("alloc returned nil")
		}
		c := sizeClass(n)
		align := c
		if align > pmem.WordsPerLine {
			align = pmem.WordsPerLine
		}
		if uint64(p)%uint64(align) != 0 {
			t.Fatalf("alloc %d (%d words) at %d not %d-aligned", i, n, p, align)
		}
		// Sub-line objects must not straddle a line.
		if c <= pmem.WordsPerLine && pmem.LineOf(p) != pmem.LineOf(p+pmem.Addr(c)-1) {
			t.Fatalf("object at %d size %d straddles a line", p, c)
		}
		blocks = append(blocks, block{p, c})
	}
	for i, b := range blocks {
		for j, o := range blocks {
			if i == j {
				continue
			}
			if b.p < o.p+pmem.Addr(o.n) && o.p < b.p+pmem.Addr(b.n) {
				t.Fatalf("blocks %d and %d overlap: [%d,%d) vs [%d,%d)",
					i, j, b.p, b.p+pmem.Addr(b.n), o.p, o.p+pmem.Addr(o.n))
			}
		}
	}
}

func TestFreeRecycles(t *testing.T) {
	h := newHeap(1 << 16)
	a := h.NewArena()
	p := a.Alloc(8)
	a.Free(p, 8)
	q := a.Alloc(8)
	if q != p {
		t.Fatalf("recycled alloc = %d, want %d", q, p)
	}
	if _, _, rec := a.AllocStats(); rec != 1 {
		t.Fatalf("recycleHit = %d, want 1", rec)
	}
	// Different size class must not recycle the freed block.
	a.Free(q, 8)
	r := a.Alloc(1)
	if r == p {
		t.Fatal("size-class mixing: 1-word alloc returned 8-word block")
	}
}

func TestOutOfMemoryPanics(t *testing.T) {
	h := newHeap(1 << 10) // tiny heap
	a := h.NewArena()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on heap exhaustion")
		}
	}()
	for i := 0; i < 1<<20; i++ {
		a.Alloc(8)
	}
}

func TestWatermarkAndRecover(t *testing.T) {
	h := newHeap(1 << 16)
	a := h.NewArena()
	th := h.Mem().RegisterThread()
	p := a.Alloc(8)
	th.Store(p, 77)
	th.PWB(p)
	th.PFence()
	wm := h.Watermark()

	img := h.Mem().CrashImage(pmem.DropUnfenced, 1)
	mem2 := pmem.NewFromImage(img, h.Mem().Config())
	h2 := Recover(mem2, wm)
	if mem2.VolatileWord(p) != 77 {
		t.Fatal("persisted object lost across recovery")
	}
	// New allocations must land past the watermark.
	a2 := h2.NewArena()
	q := a2.Alloc(8)
	if uint64(q) < wm {
		t.Fatalf("post-recovery alloc at %d below watermark %d", q, wm)
	}
	// Recover clamps tiny watermarks to the heap base.
	h3 := Recover(mem2, 0)
	if h3.Watermark() < heapBase {
		t.Fatal("watermark below heap base")
	}
}

func TestConcurrentArenasDisjoint(t *testing.T) {
	h := newHeap(1 << 20)
	const workers = 4
	const perWorker = 3000
	var mu sync.Mutex
	owned := make(map[pmem.Addr]int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := h.NewArena()
			local := make([]pmem.Addr, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				local = append(local, a.Alloc(1+i%8))
			}
			mu.Lock()
			defer mu.Unlock()
			for _, p := range local {
				if prev, dup := owned[p]; dup {
					t.Errorf("address %d allocated by workers %d and %d", p, prev, w)
				}
				owned[p] = w
			}
		}(w)
	}
	wg.Wait()
}

// TestQuickAllocFreeNeverOverlaps: random alloc/free interleavings keep
// live blocks disjoint.
func TestQuickAllocFreeNeverOverlaps(t *testing.T) {
	f := func(ops []uint8) bool {
		h := newHeap(1 << 18)
		a := h.NewArena()
		type blk struct {
			p pmem.Addr
			c int
		}
		var live []blk
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				n := 1 + int(op%12)
				p := a.Alloc(n)
				c := sizeClass(n)
				for _, b := range live {
					if p < b.p+pmem.Addr(b.c) && b.p < p+pmem.Addr(c) {
						return false
					}
				}
				live = append(live, blk{p, c})
			} else {
				i := int(op) % len(live)
				a.Free(live[i].p, live[i].c)
				live = append(live[:i], live[i+1:]...)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestDepotHintTracksCentral: centralTake and extentTake skip the
// heap-global mutex when their atomic hint says the depot is empty. A hint
// that read zero over a stocked depot would strand every surrendered block
// (the watermark would grow under session churn again), so at each step of
// Release → take → Release the hints must equal what the mutex-guarded
// lists hold, and a fresh arena must be served from the depot, not the
// bump pointer.
func TestDepotHintTracksCentral(t *testing.T) {
	h := newHeap(1 << 20)
	checkDepotHint(t, h, "fresh heap")
	if _, ok := h.centralTake(4); ok {
		t.Fatal("fresh heap's depot served a block")
	}

	const n = 64
	a := h.NewArena()
	var blocks []pmem.Addr
	for i := 0; i < n; i++ {
		blocks = append(blocks, a.Alloc(4))
	}
	for _, p := range blocks {
		a.Free(p, 4)
	}
	a.Release()
	checkDepotHint(t, h, "first Release")
	if got, _ := h.CentralStats(); got != n {
		t.Fatalf("depot holds %d blocks after releasing %d freed ones", got, n)
	}

	// Every block comes back out, one centralTake at a time, and then the
	// released chunk tail serves the bump path: the watermark stays put.
	wm := h.Watermark()
	b := h.NewArena()
	for i := 0; i < n; i++ {
		b.Alloc(4)
		checkDepotHint(t, h, "centralTake")
	}
	if _, _, recycled := b.AllocStats(); recycled != n {
		t.Fatalf("new arena recycled %d of %d depot blocks", recycled, n)
	}
	b.Alloc(4)
	checkDepotHint(t, h, "extentTake")
	if got := h.Watermark(); got != wm {
		t.Fatalf("watermark moved %d → %d with the depot stocked", wm, got)
	}
	b.Release()
	checkDepotHint(t, h, "second Release")
	if _, extentWords := h.CentralStats(); extentWords == 0 {
		t.Fatal("second Release surrendered no chunk tail")
	}
}

// checkDepotHint compares the lock-free hints with the lists they mirror;
// callers are quiescent.
func checkDepotHint(t *testing.T, h *Heap, when string) {
	t.Helper()
	blocks, extentWords := h.CentralStats()
	if got := int(h.depotBlocks.Load()); got != blocks {
		t.Fatalf("%s: depotBlocks = %d, central lists hold %d blocks", when, got, blocks)
	}
	if got := int(h.depotExtents.Load()); got != len(h.extents) || (got == 0) != (extentWords == 0) {
		t.Fatalf("%s: depotExtents = %d, extent list holds %d (%d words)", when, got, len(h.extents), extentWords)
	}
}

// TestDepotHintUnderChurn: arenas opening, taking and releasing at once
// (the store's shard-parallel recovery, a server's connection churn) leave
// the hints exact and keep the watermark bounded by what is live at once.
func TestDepotHintUnderChurn(t *testing.T) {
	h := newHeap(1 << 20)
	const workers, rounds, perRound = 4, 200, 48
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				a := h.NewArena()
				var held []pmem.Addr
				for i := 0; i < perRound; i++ {
					held = append(held, a.Alloc(4))
				}
				for _, p := range held {
					a.Free(p, 4)
				}
				a.Release()
			}
		}()
	}
	wg.Wait()
	checkDepotHint(t, h, "after churn")
	// At most `workers` arenas are live at once, each holding under one
	// chunk; without the depot the same churn consumes 4·200·48·4 words.
	if grown := h.Watermark() - heapBase; grown > 2*workers*chunkWords {
		t.Fatalf("watermark grew %d words under churn, want ≤ %d", grown, 2*workers*chunkWords)
	}
}
