package reclaim

import (
	"sync"
	"testing"

	"flit/internal/pheap"
	"flit/internal/pmem"
)

func newArena() *pheap.Arena {
	cfg := pmem.DefaultConfig(1 << 18)
	cfg.PWBCost, cfg.PFenceCost, cfg.PFenceEntryCost = 0, 0, 0
	return pheap.New(pmem.New(cfg)).NewArena()
}

func TestRetireEventuallyFrees(t *testing.T) {
	a := newArena()
	d := NewDomain()
	h := d.NewHandleOwned(a, nil)
	for i := 0; i < 10*advancePeriod; i++ {
		h.Enter()
		p := a.Alloc(8)
		h.Retire(p, 8)
		h.Exit()
	}
	h.Flush()
	allocs, frees, _ := a.AllocStats()
	if allocs != 10*advancePeriod || frees != 10*advancePeriod {
		t.Fatalf("allocs=%d frees=%d, want both %d", allocs, frees, 10*advancePeriod)
	}
	if d.Epoch() == 0 {
		t.Fatal("epoch never advanced")
	}
}

func TestPinnedReaderBlocksAdvance(t *testing.T) {
	a := newArena()
	d := NewDomain()
	writer := d.NewHandleOwned(a, nil)
	reader := d.NewHandleOwned(a, nil)

	reader.Enter() // pins the current epoch
	start := d.Epoch()
	for i := 0; i < 5*advancePeriod; i++ {
		writer.Enter()
		writer.Retire(a.Alloc(1), 1)
		writer.Exit()
	}
	// One advance may succeed (reader pinned epoch e; advance to e+1 needs
	// all == e, which holds), but e+1 -> e+2 must not.
	if d.Epoch() > start+1 {
		t.Fatalf("epoch advanced from %d to %d past a pinned reader", start, d.Epoch())
	}
	reader.Exit()
	for i := 0; i < 5*advancePeriod; i++ {
		writer.Enter()
		writer.Retire(a.Alloc(1), 1)
		writer.Exit()
	}
	if d.Epoch() <= start+1 {
		t.Fatalf("epoch stuck at %d after reader exited", d.Epoch())
	}
}

func TestNoBlockFreedWithinTwoEpochsOfRetire(t *testing.T) {
	a := newArena()
	d := NewDomain()
	h := d.NewHandleOwned(a, nil)
	h.Enter()
	p := a.Alloc(8)
	h.Retire(p, 8)
	h.Exit()
	// Immediately after retiring, nothing may be freed yet.
	if _, frees, _ := a.AllocStats(); frees != 0 {
		t.Fatalf("block freed immediately after retire (frees=%d)", frees)
	}
}

func TestConcurrentRetireStress(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 22)
	cfg.PWBCost, cfg.PFenceCost, cfg.PFenceEntryCost = 0, 0, 0
	heap := pheap.New(pmem.New(cfg))
	d := NewDomain()
	const workers = 4
	const iters = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := heap.NewArena()
			h := d.NewHandleOwned(a, nil)
			live := make([]pmem.Addr, 0, 16)
			for i := 0; i < iters; i++ {
				h.Enter()
				live = append(live, a.Alloc(4))
				if len(live) > 8 {
					h.Retire(live[0], 4)
					live = live[1:]
				}
				h.Exit()
			}
			h.Flush()
		}()
	}
	wg.Wait()
	if d.Epoch() == 0 {
		t.Fatal("epoch never advanced under concurrency")
	}
}
