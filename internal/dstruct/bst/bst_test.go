package bst

import (
	"testing"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/dstruct/dstest"
	"flit/internal/pmem"
)

func factory(cfg dstruct.Config) dstest.Instance {
	b := New(cfg)
	return dstest.Instance{Set: b, Snapshot: b.Snapshot}
}

func recoverer(cfg dstruct.Config) dstest.Instance {
	b := Recover(cfg)
	return dstest.Instance{Set: b, Snapshot: b.Snapshot}
}

func TestSequentialAgainstModel(t *testing.T) {
	for _, cfg := range dstest.ShortConfigs(dstest.Configs(1<<20, false)) {
		cfg := cfg
		t.Run(dstest.Label(cfg), func(t *testing.T) {
			dstest.SequentialModel(t, cfg, factory, 96, dstest.Scale(4000, 8))
		})
	}
}

func TestConcurrentStress(t *testing.T) {
	for _, cfg := range dstest.Configs(1<<22, false) {
		if cfg.Policy.Name() != "flit-HT(64KB)" {
			continue
		}
		cfg := cfg
		t.Run(dstest.Label(cfg), func(t *testing.T) {
			dstest.ConcurrentStress(t, cfg, factory, 64, 4, dstest.Scale(4000, 4))
		})
	}
}

func TestCleanRecovery(t *testing.T) {
	for _, cfg := range dstest.ShortConfigs(dstest.Configs(1<<20, false)) {
		if cfg.Policy.Name() == "no-persist" {
			continue
		}
		cfg := cfg
		t.Run(dstest.Label(cfg), func(t *testing.T) {
			dstest.CleanRecovery(t, cfg, factory, recoverer, 300)
		})
	}
}

func TestLinkAndPersistRejected(t *testing.T) {
	cfg := dstest.Configs(1<<16, false)[0]
	cfg.Policy = core.LinkAndPersist{}
	defer func() {
		if recover() == nil {
			t.Fatal("BST accepted link-and-persist; the paper reports it inapplicable")
		}
	}()
	New(cfg)
}

func TestGet(t *testing.T) {
	cfg := dstest.Configs(1<<18, false)[0]
	b := New(cfg)
	th := b.Open(dstruct.ThreadOpts{})
	th.Insert(10, 100)
	th.Insert(20, 200)
	if v, ok := th.Get(10); !ok || v != 100 {
		t.Fatalf("Get(10) = (%d,%v), want (100,true)", v, ok)
	}
	if _, ok := th.Get(15); ok {
		t.Fatal("Get(15) found a missing key")
	}
	th.Delete(10)
	if _, ok := th.Get(10); ok {
		t.Fatal("Get(10) found a deleted key")
	}
}

// TestCrashedThreadDoesNotWedgeReclamation: a handle that dies by crash
// injection mid-operation stays pinned in its epoch forever. Its
// reclamation slot is registered with its pmem thread as owner, so epoch
// advancement adopts it (the orphan rule) and churn by the survivors keeps
// reusing memory; an ownerless slot would strand every later retiree and
// the watermark would climb with the churn.
func TestCrashedThreadDoesNotWedgeReclamation(t *testing.T) {
	cfg := dstest.Configs(1<<20, false)[0]
	b := New(cfg)
	victim := b.Open(dstruct.ThreadOpts{})
	victim.Insert(1, 1) // its slot has entered an epoch
	victim.Ctx().T.SetCrashAfter(3)
	if !pmem.RunToCrash(func() { victim.Insert(2, 2) }) {
		t.Fatal("armed crash did not fire during the victim's operation")
	}
	th := b.Open(dstruct.ThreadOpts{})
	defer th.Close()
	churn := func(rounds int) {
		for i := 0; i < rounds; i++ {
			for k := uint64(100); k < 164; k++ {
				th.Insert(k, k)
			}
			for k := uint64(100); k < 164; k++ {
				th.Delete(k)
			}
		}
	}
	churn(10)
	w0 := cfg.Heap.Watermark()
	churn(200)
	if w := cfg.Heap.Watermark(); w > 2*w0 {
		t.Fatalf("crashed thread wedged reclamation: watermark %d words after churn, %d after warm-up (bound 2×)", w, w0)
	}
}

// TestExternalTreeInvariants checks BST ordering and external-tree shape
// after churn: every internal node has two children; leaves partition the
// key space by the internal keys.
func TestExternalTreeInvariants(t *testing.T) {
	cfg := dstest.Configs(1<<20, false)[0]
	b := New(cfg)
	th := b.Open(dstruct.ThreadOpts{})
	for i := 0; i < 3000; i++ {
		k := uint64((i * 37) % 500)
		if i%3 == 0 {
			th.Delete(k)
		} else {
			th.Insert(k, k)
		}
	}
	mem := cfg.Heap.Mem()
	var walk func(n uint64, lo, hi uint64)
	walk = func(raw uint64, lo, hi uint64) {
		n := dstruct.Ptr(raw)
		if n == 0 {
			t.Fatal("nil child of internal node (external tree violated)")
		}
		k := mem.VolatileWord(cfg.Field(n, fKey))
		if k < lo || k > hi {
			t.Fatalf("key %d outside [%d,%d]", k, lo, hi)
		}
		l := mem.VolatileWord(cfg.Field(n, fLeft))
		r := mem.VolatileWord(cfg.Field(n, fRight))
		lp, rp := dstruct.Ptr(l), dstruct.Ptr(r)
		if (lp == 0) != (rp == 0) {
			t.Fatalf("internal node %d with exactly one child", n)
		}
		if lp != 0 {
			if k == 0 {
				t.Fatal("internal key 0 cannot split")
			}
			walk(l, lo, k-1)
			walk(r, k, hi)
		}
	}
	walk(uint64(b.r), 0, inf2)
}

func TestRepeatedCrashes(t *testing.T) {
	cfg := dstest.Configs(1<<22, false)[0]
	dstest.RepeatedCrashes(t, cfg, factory, recoverer, dstest.Scale(4, 2))
}

// TestDurableLinearizabilityEnumerated runs the systematic crash-point
// battery: every (budgeted) PWB/PFence boundary of a recorded execution
// must recover to a state some linearization explains.
func TestDurableLinearizabilityEnumerated(t *testing.T) {
	for _, cfg := range dstest.DLConfigs(false) {
		t.Run(dstest.Label(cfg), func(t *testing.T) {
			dstest.DLCheck(t, "bst", cfg, factory, recoverer, 1)
		})
	}
}
