package crashtest

import (
	"testing"

	"flit/internal/core"
	"flit/internal/pmem"
	"flit/internal/store"
)

// TestStoreCombinedDurableLinearizability is storeBattery over the
// embedded flat-combining path: workers announce op vectors to the
// per-shard combiners, whose windows may merge several sessions' vectors,
// and the ack rule under test is that nothing responds before its
// window's one fence.
func TestStoreCombinedDurableLinearizability(t *testing.T) {
	storeBattery(t, store.Combined, storeShape)
}

// TestStoreCombinedDL is storeBattery over the combining path at
// denseShape. Concurrent sessions' vectors merge into shared combiner
// windows here, so the enumeration covers boundaries inside multi-session
// windows — executed-but-unfenced operations from several announcers at
// once.
func TestStoreCombinedDL(t *testing.T) { storeBattery(t, store.Combined, denseShape) }

// TestStoreCombinedCheckerHasTeeth is storeTooth over the combining path.
func TestStoreCombinedCheckerHasTeeth(t *testing.T) { storeTooth(t, store.Combined, storeShape) }

// TestStoreCombinedDLCheckerHasTeeth is storeTooth over the combining
// path at denseShape.
func TestStoreCombinedDLCheckerHasTeeth(t *testing.T) { storeTooth(t, store.Combined, denseShape) }

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
					// Coalescing collapses a whole round's adds into ~100
					// instrumented instructions per combiner thread, so the
					// countdowns are tight enough to land mid-run.
					opts := StoreOptions{MinCrash: 10, MaxCrash: 150, CrashMode: cm, Seed: seed}
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
		opts := StoreOptions{MinCrash: 10, MaxCrash: 150, CrashMode: pmem.DropUnfenced, Seed: seed}
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
