package hashtable

import (
	"testing"

	"flit/internal/dstruct"
	"flit/internal/dstruct/dstest"
)

func factory(buckets int) dstest.Factory {
	return func(cfg dstruct.Config) dstest.Instance {
		tb := New(cfg, buckets)
		return dstest.Instance{Set: tb, Snapshot: tb.Snapshot}
	}
}

func recoverer(cfg dstruct.Config) dstest.Instance {
	tb := Recover(cfg)
	return dstest.Instance{Set: tb, Snapshot: tb.Snapshot}
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

func TestBucketCountRoundsToPowerOfTwo(t *testing.T) {
	cfg := dstest.Configs(1<<16, false)[0]
	tb := New(cfg, 100)
	if tb.Buckets() != 128 {
		t.Fatalf("Buckets() = %d, want 128", tb.Buckets())
	}
}

func TestAttachFindsExistingTable(t *testing.T) {
	cfg := dstest.Configs(1<<16, false)[0]
	tb := New(cfg, 8)
	th := tb.Open(dstruct.ThreadOpts{})
	th.Insert(42, 420)
	tb2 := Attach(cfg)
	th2 := tb2.Open(dstruct.ThreadOpts{})
	if v, ok := th2.Get(42); !ok || v != 420 {
		t.Fatalf("Get(42) via Attach = (%d,%v), want (420,true)", v, ok)
	}
	if tb2.Buckets() != 8 {
		t.Fatalf("attached bucket count %d, want 8", tb2.Buckets())
	}
}

func TestRepeatedCrashes(t *testing.T) {
	cfg := dstest.Configs(1<<20, false)[0]
	dstest.RepeatedCrashes(t, cfg, factory(16), recoverer, 4)
}

// TestDurableLinearizabilityEnumerated runs the systematic crash-point
// battery: every (budgeted) PWB/PFence boundary of a recorded execution
// must recover to a state some linearization explains.
func TestDurableLinearizabilityEnumerated(t *testing.T) {
	for _, cfg := range dstest.DLConfigs(true) {
		t.Run(dstest.Label(cfg), func(t *testing.T) {
			dstest.DLCheck(t, "hashtable", cfg, factory(8), recoverer, 1)
		})
	}
}
