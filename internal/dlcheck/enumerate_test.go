package dlcheck_test

import (
	"fmt"
	"testing"

	"flit/internal/core"
	"flit/internal/crashtest"
	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/store"
)

func dlPolicies(withLAP bool) []core.Policy {
	ps := []core.Policy{
		core.NewFliT(core.NewHashTable(1 << 14)),
		core.NewFliT(core.Adjacent{}),
		core.Plain{},
		core.Izraelevitz{},
	}
	if withLAP {
		ps = append(ps, core.LinkAndPersist{})
	}
	return ps
}

// TestEnumeratedSetsAllTargets is the subsystem's central battery: every
// structure × durability mode × policy, each recorded execution checked
// at every (budgeted) PWB/PFence boundary.
func TestEnumeratedSetsAllTargets(t *testing.T) {
	seeds := []int64{1, 2}
	budget := 0 // full enumeration
	if testing.Short() {
		seeds = seeds[:1]
		budget = 48
	}
	for _, target := range crashtest.Targets() {
		pols := dlPolicies(target.WithLAP)
		if testing.Short() {
			pols = []core.Policy{pols[0], core.Plain{}}
		}
		for _, mode := range dstruct.Modes {
			for _, pol := range pols {
				name := fmt.Sprintf("%s/%s/%s", target.Name, mode, pol.Name())
				t.Run(name, func(t *testing.T) {
					for _, seed := range seeds {
						opts := dlcheck.DefaultOptions(seed)
						opts.Budget = budget
						rep := dlcheck.RunSet(dlcheck.NewConfig(pol, mode), target.Target, opts)
						if rep.Violation != nil {
							t.Fatalf("seed %d: %v", seed, rep.Violation)
						}
						if rep.Records == 0 {
							t.Fatalf("seed %d: no persist records traced — tracer unwired?", seed)
						}
						if rep.Points < 2 {
							t.Fatalf("seed %d: only %d crash points checked", seed, rep.Points)
						}
					}
				})
			}
		}
	}
}

// TestEnumeratedQueue checks the durable FIFO queue — the structure whose
// taken-mark skip path motivated the failed-p-CAS load obligation — at
// every boundary under the full policy set.
func TestEnumeratedQueue(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	// Same coverage as the set battery; LAP applies (CAS-only stores).
	for _, pol := range dlPolicies(true) {
		t.Run(pol.Name(), func(t *testing.T) {
			for _, seed := range seeds {
				opts := dlcheck.DefaultOptions(seed)
				opts.OpsPerWorker = 8 // whole-history FIFO search: keep ops modest
				opts.Budget = 0
				rep := crashtest.RunQueueDL(dlcheck.NewConfig(pol, dstruct.Manual), opts)
				if rep.Violation != nil {
					t.Fatalf("seed %d: %v", seed, rep.Violation)
				}
				if rep.Records == 0 {
					t.Fatalf("seed %d: no persist records traced", seed)
				}
			}
		})
	}
}

// TestEnumeratedStore checks the sharded store service end to end:
// session histories, superblock probe and shard-parallel recovery at
// every boundary.
func TestEnumeratedStore(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, policy := range []string{core.PolicyHT, core.PolicyAdjacent} {
		t.Run(policy, func(t *testing.T) {
			for _, seed := range seeds {
				st := newDLStore(t, policy)
				opts := dlcheck.DefaultOptions(seed)
				if testing.Short() {
					opts.Budget = 48
				} else {
					opts.Budget = 0
				}
				rep := crashtest.RunStoreDL(st, store.Direct, 0, opts)
				if rep.Violation != nil {
					t.Fatalf("seed %d: %v", seed, rep.Violation)
				}
				if rep.Records == 0 || rep.Points < 2 {
					t.Fatalf("seed %d: thin run: %+v", seed, rep)
				}
			}
		})
	}
}
