package crashtest

import (
	"testing"

	"flit/internal/core"
	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/pmem"
	"flit/internal/store"
	"flit/internal/workload"
)

// TestStoreBatchedDurableLinearizability is the randomized battery over
// the batched (group-commit) request path: pipelined batches, crash
// injection landing between and inside batches, shard-parallel
// recovery, exact per-key checking. Mid-batch crashes freeze whole
// batches as pending — the ack rule under test is that nothing responds
// before its batch's commit fence.
func TestStoreBatchedDurableLinearizability(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	crashModes := []pmem.CrashMode{pmem.DropUnfenced, pmem.RandomSubset, pmem.PersistAll}
	policies := []string{core.PolicyHT, core.PolicyAdjacent, core.PolicyPlain, core.PolicyLAP}
	if testing.Short() {
		policies = policies[:2]
	}
	for _, policy := range policies {
		modes := []dstruct.Mode{dstruct.Automatic}
		if policy == core.PolicyHT {
			modes = dstruct.Modes
		}
		t.Run(policy, func(t *testing.T) {
			for _, mode := range modes {
				for _, cm := range crashModes {
					for _, seed := range seeds {
						st := newCrashStoreMode(t, policy, mode)
						workload.Load(st, 200, 2)
						opts := DefaultStoreOptions(seed, cm)
						opts.KeyRange = 300
						opts.KeyOf = workload.Key
						verdict, err := RunStore(st, store.Batched, opts)
						if err != nil {
							t.Fatal(err)
						}
						if verdict.Violation != nil {
							t.Fatalf("mode %v crash mode %v seed %d: %v", mode, cm, seed, verdict.Violation)
						}
						sess := store.Open[string](verdict.Store, store.Direct)
						if !sess.Put("post", 1) || !sess.Contains("post") || !sess.Delete("post") {
							t.Fatalf("mode %v crash mode %v seed %d: recovered store inoperable", mode, cm, seed)
						}
					}
				}
			}
		})
	}
}

// TestStoreBatchedDL is the systematic battery over the batched path:
// every (budgeted) persist boundary of recorded batched executions,
// across policies and durability modes. This is the enumeration the
// server's ack rule rests on: a response only ever follows its batch's
// commit fence, so no checked boundary may lose an acknowledged op.
func TestStoreBatchedDL(t *testing.T) {
	budget := 0 // every boundary
	seeds := []int64{1, 2}
	policies := []string{core.PolicyHT, core.PolicyAdjacent, core.PolicyPlain, core.PolicyIz, core.PolicyLAP}
	if testing.Short() {
		budget = 64
		seeds = seeds[:1]
	}
	for _, policy := range policies {
		modes := []dstruct.Mode{dstruct.Automatic}
		if policy == core.PolicyHT {
			modes = dstruct.Modes
		}
		t.Run(policy, func(t *testing.T) {
			for _, mode := range modes {
				for _, seed := range seeds {
					st, err := NewDLStore(policy, mode)
					if err != nil {
						t.Fatal(err)
					}
					opts := dlcheck.DefaultOptions(seed)
					opts.Budget = budget
					rep := RunStoreDL(st, store.Batched, 0, opts)
					if rep.Violation != nil {
						t.Fatalf("mode %v seed %d: %v", mode, seed, rep.Violation)
					}
					if rep.Points < 2 {
						t.Fatalf("mode %v seed %d: only %d crash points checked", mode, seed, rep.Points)
					}
					if policy == core.PolicyHT && rep.LiveTags != 0 {
						t.Fatalf("mode %v seed %d: %d live tags after batched run", mode, seed, rep.LiveTags)
					}
				}
			}
		})
	}
}

// TestStoreBatchedFencesAmortized: the batched path must actually
// batch — the same recorded op budget issues fewer PFence instructions
// (and no more PWBs) through group commit than through per-op
// persistence. Single-worker, so the comparison is deterministic:
// with concurrency, readers of another batch's in-flight (tagged)
// stores legitimately pay extra flushes, which only the macro
// benchmarks can weigh against the dedup wins.
func TestStoreBatchedFencesAmortized(t *testing.T) {
	opts := dlcheck.Options{Workers: 1, OpsPerWorker: 54, Seed: 1, Budget: 2}

	stPer, err := NewDLStore(core.PolicyHT, dstruct.Automatic)
	if err != nil {
		t.Fatal(err)
	}
	per := RunStoreDL(stPer, store.Direct, 0, opts)
	if per.Violation != nil {
		t.Fatal(per.Violation)
	}
	perStats := stPer.Mem().TotalStats()

	stBat, err := NewDLStore(core.PolicyHT, dstruct.Automatic)
	if err != nil {
		t.Fatal(err)
	}
	bat := RunStoreDL(stBat, store.Batched, 0, opts)
	if bat.Violation != nil {
		t.Fatal(bat.Violation)
	}
	batStats := stBat.Mem().TotalStats()

	if batStats.PFences >= perStats.PFences {
		t.Fatalf("batched path issued %d fences, per-op path %d: group commit is not amortizing",
			batStats.PFences, perStats.PFences)
	}
	if batStats.PWBs > perStats.PWBs {
		t.Fatalf("batched path issued %d PWBs, per-op path %d: deferral added flushes",
			batStats.PWBs, perStats.PWBs)
	}
}

// TestStoreBatchedCheckerHasTeeth: with persistence disabled, the
// batched commit persists nothing — DropUnfenced rounds must surface a
// violation, proving the battery checks the ack rule rather than the
// code path's shape.
func TestStoreBatchedCheckerHasTeeth(t *testing.T) {
	caught := false
	for seed := int64(1); seed <= 6 && !caught; seed++ {
		st := newCrashStore(t, core.PolicyNoPersist)
		workload.Load(st, 200, 2)
		opts := DefaultStoreOptions(seed, pmem.DropUnfenced)
		opts.KeyRange = 300
		opts.KeyOf = workload.Key
		verdict, err := RunStore(st, store.Batched, opts)
		if err != nil {
			t.Fatal(err)
		}
		caught = verdict.Violation != nil
	}
	if !caught {
		t.Fatal("no-persist store passed the batched crash checker — the battery has no teeth")
	}
}

// TestStoreBatchedDLCheckerHasTeeth: the systematic batched battery
// must reject no-persist too — completed batched ops that never
// persisted show up at the first crash boundary.
func TestStoreBatchedDLCheckerHasTeeth(t *testing.T) {
	caught := false
	for seed := int64(1); seed <= 4 && !caught; seed++ {
		st, err := NewDLStore(core.PolicyNoPersist, dstruct.Automatic)
		if err != nil {
			t.Fatal(err)
		}
		opts := dlcheck.DefaultOptions(seed)
		opts.Budget = 16
		rep := RunStoreDL(st, store.Batched, 0, opts)
		caught = rep.Violation != nil
	}
	if !caught {
		t.Fatal("no-persist store passed the batched systematic battery")
	}
}
