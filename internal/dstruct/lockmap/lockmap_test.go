package lockmap

import (
	"testing"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/dstruct/dstest"
	"flit/internal/pheap"
	"flit/internal/pmem"
)

func factory(buckets int) dstest.Factory {
	return func(cfg dstruct.Config) dstest.Instance {
		m := New(cfg, buckets)
		return dstest.Instance{Set: m, Snapshot: m.Snapshot}
	}
}

func recoverer(cfg dstruct.Config) dstest.Instance {
	m := Recover(cfg)
	return dstest.Instance{Set: m, Snapshot: m.Snapshot}
}

func TestSequentialAgainstModel(t *testing.T) {
	for _, cfg := range dstest.Configs(1<<18, true) {
		cfg := cfg
		t.Run(dstest.Label(cfg), func(t *testing.T) {
			dstest.SequentialModel(t, cfg, factory(16), 96, 4000)
		})
	}
}

func TestConcurrentStress(t *testing.T) {
	for _, cfg := range dstest.Configs(1<<20, true) {
		if cfg.Policy.Name() != "flit-HT(64KB)" && cfg.Policy.Name() != "link-and-persist" {
			continue
		}
		cfg := cfg
		t.Run(dstest.Label(cfg), func(t *testing.T) {
			dstest.ConcurrentStress(t, cfg, factory(8), 64, 4, 4000)
		})
	}
}

func TestCleanRecovery(t *testing.T) {
	for _, cfg := range dstest.Configs(1<<18, true) {
		if cfg.Policy.Name() == "no-persist" {
			continue
		}
		cfg := cfg
		t.Run(dstest.Label(cfg), func(t *testing.T) {
			dstest.CleanRecovery(t, cfg, factory(16), recoverer, 300)
		})
	}
}

func TestRepeatedCrashes(t *testing.T) {
	cfg := dstest.Configs(1<<20, false)[0]
	dstest.RepeatedCrashes(t, cfg, factory(16), recoverer, 4)
}

func TestRecoveryClearsEvictedLocks(t *testing.T) {
	cfg := dstest.Configs(1<<16, false)[0]
	m := New(cfg, 8)
	th := m.Open(dstruct.ThreadOpts{})
	th.Insert(5, 50)
	// Simulate a crash while a lock was held AND evicted: force the lock
	// word set in the volatile layer, then take a PersistAll image (every
	// volatile line "evicted").
	lock, _ := m.bucket(5)
	raw := cfg.Heap.Mem().RegisterThread()
	raw.Store(lock, 1)
	wm := cfg.Heap.Watermark()
	img := cfg.Heap.Mem().CrashImage(pmem.PersistAll, 1)
	mem2 := pmem.NewFromImage(img, cfg.Heap.Mem().Config())
	cfg2 := cfg
	cfg2.Heap = pheap.Recover(mem2, wm)
	m2 := Recover(cfg2)
	th2 := m2.Open(dstruct.ThreadOpts{})
	// If the lock survived, this would spin forever; the test timing out
	// is the failure mode.
	if !th2.Contains(5) {
		t.Fatal("key lost across lock-held crash")
	}
}

func TestContainsIssuesNoFlushes(t *testing.T) {
	cfg := dstest.Configs(1<<16, false)[0]
	m := New(cfg, 8)
	th := m.Open(dstruct.ThreadOpts{})
	for i := uint64(0); i < 50; i++ {
		th.Insert(i, i)
	}
	before := th.c.T.Stats.PWBs
	for i := uint64(0); i < 50; i++ {
		th.Contains(i)
	}
	if th.c.T.Stats.PWBs != before {
		t.Fatalf("lock-based contains issued %d flushes; private loads never flush",
			th.c.T.Stats.PWBs-before)
	}
}

func TestLinkAndPersistWorks(t *testing.T) {
	// The lockmap uses only CAS/stores on its lock and private stores on
	// data, so link-and-persist applies.
	for _, cfg := range dstest.Configs(1<<18, true) {
		if cfg.Policy.Name() != "link-and-persist" {
			continue
		}
		m := New(cfg, 8)
		th := m.Open(dstruct.ThreadOpts{})
		if !th.Insert(1, 10) || !th.Contains(1) || !th.Delete(1) {
			t.Fatal("link-and-persist lockmap broken")
		}
		break
	}
	_ = core.P
}

// TestDurableLinearizabilityEnumerated runs the systematic crash-point
// battery: every (budgeted) PWB/PFence boundary of a recorded execution
// must recover to a state some linearization explains.
func TestDurableLinearizabilityEnumerated(t *testing.T) {
	for _, cfg := range dstest.DLConfigs(true) {
		t.Run(dstest.Label(cfg), func(t *testing.T) {
			dstest.DLCheck(t, "lockmap", cfg, factory(8), recoverer, 1)
		})
	}
}
