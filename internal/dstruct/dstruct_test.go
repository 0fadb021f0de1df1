package dstruct

import (
	"testing"

	"flit/internal/core"
	"flit/internal/pheap"
	"flit/internal/pmem"
	"flit/internal/reclaim"
)

// TestStrideForNameMatchesPolicy: the stride a store sizes its memory by,
// before it builds its policy, is the stride of the policy it then builds.
func TestStrideForNameMatchesPolicy(t *testing.T) {
	for _, name := range core.PolicyNames() {
		pol, err := core.NewPolicyByName(name, 1<<10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := StrideForName(name), StrideFor(pol); got != want {
			t.Fatalf("StrideForName(%q) = %d, the policy it names needs %d", name, got, want)
		}
	}
}

// TestRetireWaitsForTheWindow: under a commit window a retired block
// reaches the reclamation handle only at the window's commit, after the
// fence that persists the unlink that retired it; under the raw policy,
// whose unlink fenced before it returned, it goes there at once.
func TestRetireWaitsForTheWindow(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 12)
	cfg.VirtualClock = true
	pol := core.NewFliT(core.NewHashTable(1 << 10))
	base := Config{Heap: pheap.New(pmem.New(cfg)), Policy: pol, Stride: 1}
	freed := func(c *Ctx) uint64 {
		c.H.Flush() // every bucket to the arena, grace period or not
		_, n, _ := c.Ar.AllocStats()
		return n
	}

	raw := base.Open(reclaim.NewDomain(), ThreadOpts{})
	defer raw.Close()
	raw.Retire(512, 4)
	if n := freed(&raw); n != 1 {
		t.Fatalf("raw policy: %d blocks freed after Retire, want 1", n)
	}

	w := core.NewDeferred(pol)
	win := base.Open(reclaim.NewDomain(), ThreadOpts{Policy: w})
	defer win.Close()
	win.Retire(512, 4)
	if n := freed(&win); n != 0 {
		t.Fatalf("window: %d blocks freed before the commit, want 0", n)
	}
	w.Commit(win.T)
	if n := freed(&win); n != 1 {
		t.Fatalf("window: %d blocks freed after the commit, want 1", n)
	}
}
