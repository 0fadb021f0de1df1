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

// TestStoreCombinedDurableLinearizability is the randomized battery over
// the embedded flat-combining path: workers announce op vectors to the
// per-shard combiners, crash injection lands on the combiner threads —
// mid-window, which freezes every in-flight Apply in the process as
// pending history — and the recovered key set is checked exactly. The
// ack rule under test: nothing responds before its window's one fence.
func TestStoreCombinedDurableLinearizability(t *testing.T) {
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
						verdict, err := RunStore(st, store.Combined, opts)
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

// TestStoreCombinedDL is the systematic battery over the combining path:
// every (budgeted) persist boundary of recorded combined executions,
// across policies and durability modes. Concurrent sessions' vectors
// merge into shared combiner windows here, so the enumeration covers
// boundaries inside multi-session windows — executed-but-unfenced
// operations from several announcers at once.
func TestStoreCombinedDL(t *testing.T) {
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
					rep := RunStoreDL(st, store.Combined, 0, opts)
					if rep.Violation != nil {
						t.Fatalf("mode %v seed %d: %v", mode, seed, rep.Violation)
					}
					if rep.Points < 2 {
						t.Fatalf("mode %v seed %d: only %d crash points checked", mode, seed, rep.Points)
					}
					if policy == core.PolicyHT && rep.LiveTags != 0 {
						t.Fatalf("mode %v seed %d: %d live tags after combined run", mode, seed, rep.LiveTags)
					}
				}
			}
		})
	}
}

// TestStoreCombinedCheckerHasTeeth: with persistence disabled, the
// combiner's window fence persists nothing — DropUnfenced rounds must
// surface a violation, proving the battery checks the ack rule rather
// than the code path's shape.
func TestStoreCombinedCheckerHasTeeth(t *testing.T) {
	caught := false
	for seed := int64(1); seed <= 6 && !caught; seed++ {
		st := newCrashStore(t, core.PolicyNoPersist)
		workload.Load(st, 200, 2)
		opts := DefaultStoreOptions(seed, pmem.DropUnfenced)
		opts.KeyRange = 300
		opts.KeyOf = workload.Key
		verdict, err := RunStore(st, store.Combined, opts)
		if err != nil {
			t.Fatal(err)
		}
		caught = verdict.Violation != nil
	}
	if !caught {
		t.Fatal("no-persist store passed the combined crash checker — the battery has no teeth")
	}
}

// TestStoreCombinedDLCheckerHasTeeth: the systematic combined battery
// must reject no-persist too — acknowledged combined ops that never
// persisted show up at the first crash boundary.
func TestStoreCombinedDLCheckerHasTeeth(t *testing.T) {
	caught := false
	for seed := int64(1); seed <= 4 && !caught; seed++ {
		st, err := NewDLStore(core.PolicyNoPersist, dstruct.Automatic)
		if err != nil {
			t.Fatal(err)
		}
		opts := dlcheck.DefaultOptions(seed)
		opts.Budget = 16
		rep := RunStoreDL(st, store.Combined, 0, opts)
		caught = rep.Violation != nil
	}
	if !caught {
		t.Fatal("no-persist store passed the combined systematic battery")
	}
}

// TestStoreCombinedAddsCrashSafety is the net-delta battery: windows of
// ±1 deltas over a few hot counters, crash countdowns on the combiner
// threads, and the interval check — every recovered counter must equal
// the acknowledged net plus some subset of the pending deltas. This is
// the crash-safety contract the coalescing elision must honor: skipping
// the store for a self-cancelling window is legal only because the
// acknowledged net really is zero.
func TestStoreCombinedAddsCrashSafety(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:3]
	}
	crashModes := []pmem.CrashMode{pmem.DropUnfenced, pmem.RandomSubset, pmem.PersistAll}
	policies := []string{core.PolicyHT, core.PolicyAdjacent, core.PolicyPlain, core.PolicyLAP}
	if testing.Short() {
		policies = policies[:2]
	}
	crashes := 0
	for _, policy := range policies {
		t.Run(policy, func(t *testing.T) {
			for _, cm := range crashModes {
				for _, seed := range seeds {
					st := newCrashStore(t, policy)
					opts := DefaultStoreOptions(seed, cm)
					// Coalescing collapses a whole round's adds into ~100
					// instrumented instructions per combiner thread;
					// tighten the countdowns so crashes still land mid-run.
					opts.MinCrash, opts.MaxCrash = 10, 150
					verdict, err := RunStoreCombinedAdds(st, opts, 16, 4, false)
					if err != nil {
						t.Fatal(err)
					}
					if verdict.Violation != nil {
						t.Fatalf("crash mode %v seed %d: %v", cm, seed, verdict.Violation)
					}
					crashes += verdict.Crashed
				}
			}
		})
	}
	if !testing.Short() && crashes == 0 {
		t.Fatal("no round crashed mid-run: the adds battery exercised no crash point")
	}
}

// TestStoreCombinedAddsCheckerHasTeeth: biased (+1-only) traffic through
// a no-persist store drifts every acknowledged counter upward while the
// image retains nothing — the interval check must reject it.
func TestStoreCombinedAddsCheckerHasTeeth(t *testing.T) {
	caught := false
	for seed := int64(1); seed <= 4 && !caught; seed++ {
		st := newCrashStore(t, core.PolicyNoPersist)
		opts := DefaultStoreOptions(seed, pmem.DropUnfenced)
		opts.MinCrash, opts.MaxCrash = 10, 150
		verdict, err := RunStoreCombinedAdds(st, opts, 16, 4, true)
		if err != nil {
			t.Fatal(err)
		}
		caught = verdict.Violation != nil
	}
	if !caught {
		t.Fatal("no-persist store passed the net-delta battery — it has no teeth")
	}
}
