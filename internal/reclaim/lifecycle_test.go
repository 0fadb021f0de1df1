package reclaim

import (
	"testing"

	"flit/internal/pheap"
	"flit/internal/pmem"
)

// TestCloseFreesBagsWhenQuiescent: with no other handle pinned, Close
// advances the epoch past its own grace bags and frees them on the spot
// — a short-lived session that never retired advancePeriod blocks must
// not leave anything behind.
func TestCloseFreesBagsWhenQuiescent(t *testing.T) {
	a := newArena()
	d := NewDomain()
	h := d.NewHandleOwned(a, nil)
	h.Enter()
	for i := 0; i < 8; i++ {
		h.Retire(a.Alloc(4), 4)
	}
	h.Exit()
	h.Close()
	if n := d.NumHandles(); n != 0 {
		t.Fatalf("NumHandles after Close = %d, want 0", n)
	}
	if n := d.OrphanBlocks(); n != 0 {
		t.Fatalf("OrphanBlocks after unobstructed Close = %d, want 0", n)
	}
	if _, frees, _ := a.AllocStats(); frees != 8 {
		t.Fatalf("Close freed %d blocks, want all 8", frees)
	}
}

// TestCloseOrphansBehindPinnedReader: when a live pinned handle blocks
// epoch advancement, Close must park its grace bags on the domain orphan
// list — NOT free them (the reader may still hold references) — and a
// surviving handle frees them once the reader moves on.
func TestCloseOrphansBehindPinnedReader(t *testing.T) {
	a := newArena()
	d := NewDomain()
	reader := d.NewHandleOwned(a, nil)
	reader.Enter() // pins the epoch for the whole first act

	h := d.NewHandleOwned(a, nil)
	h.Enter()
	for i := 0; i < 8; i++ {
		h.Retire(a.Alloc(4), 4)
	}
	h.Exit()
	h.Close()
	if n := d.OrphanBlocks(); n != 8 {
		t.Fatalf("OrphanBlocks after Close behind a pinned reader = %d, want 8", n)
	}
	if _, frees, _ := a.AllocStats(); frees != 0 {
		t.Fatalf("Close freed %d blocks under a pinned reader", frees)
	}

	reader.Exit()
	h2 := d.NewHandleOwned(a, nil)
	for i := 0; i < 10*advancePeriod; i++ {
		h2.Enter()
		h2.Retire(a.Alloc(1), 1)
		h2.Exit()
	}
	if n := d.OrphanBlocks(); n != 0 {
		t.Fatalf("orphans never scavenged by a surviving handle: %d blocks still parked", n)
	}
	h2.Flush()
	h2.Close()
	reader.Close()
}

// TestCrashedOwnerAdopted is the epoch-wedge regression test: a handle
// abandoned while pinned — its owning pmem thread unwound via crash
// injection without Exit or Close — must be adopted during epoch
// advancement instead of pinning the global epoch forever.
func TestCrashedOwnerAdopted(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 18)
	cfg.PWBCost, cfg.PFenceCost, cfg.PFenceEntryCost = 0, 0, 0
	mem := pmem.New(cfg)
	a := pheap.New(mem).NewArena()
	d := NewDomain()

	th := mem.RegisterThread()
	victim := d.NewHandleOwned(a, th)
	victim.Enter() // pinned; never Exits
	// Kill the owner the way crash injection does: the goroutine unwinds
	// on ErrCrashed with the announcement still in place.
	th.SetCrashAfter(0)
	if crashed := pmem.RunToCrash(func() { th.CheckCrash() }); !crashed {
		t.Fatal("armed crash countdown did not fire")
	}

	writer := d.NewHandleOwned(a, nil)
	start := d.Epoch()
	for i := 0; i < 10*advancePeriod; i++ {
		writer.Enter()
		writer.Retire(a.Alloc(1), 1)
		writer.Exit()
	}
	// At most one advance could succeed past a live pinned handle (see
	// TestPinnedReaderBlocksAdvance); more than one proves adoption.
	if d.Epoch() <= start+1 {
		t.Fatalf("epoch wedged at %d by a crashed owner's pinned handle", d.Epoch())
	}
	if n := d.NumHandles(); n != 1 {
		t.Fatalf("crashed handle not adopted: %d handles registered, want 1", n)
	}
	writer.Flush()
	writer.Close()
}

// TestLiveOwnerStillPins: the orphan rule must not adopt a handle whose
// owner is alive — only Crashed() owners are fair game, else a slow
// reader's nodes could be freed under it.
func TestLiveOwnerStillPins(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 18)
	cfg.PWBCost, cfg.PFenceCost, cfg.PFenceEntryCost = 0, 0, 0
	mem := pmem.New(cfg)
	a := pheap.New(mem).NewArena()
	d := NewDomain()

	th := mem.RegisterThread()
	reader := d.NewHandleOwned(a, th) // owner set but never crashes
	reader.Enter()
	start := d.Epoch()
	writer := d.NewHandleOwned(a, nil)
	for i := 0; i < 5*advancePeriod; i++ {
		writer.Enter()
		writer.Retire(a.Alloc(1), 1)
		writer.Exit()
	}
	if d.Epoch() > start+1 {
		t.Fatalf("epoch advanced to %d past a pinned handle with a live owner", d.Epoch())
	}
	if n := d.NumHandles(); n != 2 {
		t.Fatalf("live-owner handle was adopted: %d handles, want 2", n)
	}
	reader.Exit()
	writer.Flush()
}

// TestHandleChurnBounded: a churn of short-lived handles must leave the
// domain registry empty and the outstanding (retired-not-freed) block
// population bounded by the grace period, not growing with the number of
// closed handles.
func TestHandleChurnBounded(t *testing.T) {
	a := newArena()
	d := NewDomain()
	for i := 0; i < 64; i++ {
		h := d.NewHandleOwned(a, nil)
		for j := 0; j < 2*advancePeriod; j++ {
			h.Enter()
			h.Retire(a.Alloc(2), 2)
			h.Exit()
		}
		h.Close()
		h.Close() // idempotent
		if n := d.NumHandles(); n != 0 {
			t.Fatalf("cycle %d: NumHandles=%d, want 0", i, n)
		}
	}
	allocs, frees, _ := a.AllocStats()
	if frees == 0 {
		t.Fatal("no retired block was ever freed under handle churn")
	}
	if outstanding := allocs - frees; outstanding > 6*advancePeriod {
		t.Fatalf("outstanding blocks %d grew with handle churn (allocs=%d frees=%d)",
			outstanding, allocs, frees)
	}
}
