package crashtest

import (
	"math/rand"
	"testing"

	"flit/internal/core"
	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/hist"
	"flit/internal/pmem"
	"flit/internal/store"
)

// TestStoreBatchedDurableLinearizability is storeBattery over Batched
// sessions (group commit without a combiner): each worker applies
// vectors in a window of its own, crash boundaries fall between and
// inside windows — a window whose commit fence has not drained leaves
// its operations pending — and the ack rule under test is that nothing
// is recorded as answered before its window's commit fence.
func TestStoreBatchedDurableLinearizability(t *testing.T) { storeBattery(t, store.Batched, storeShape) }

// TestStoreBatchedDL is storeBattery over Batched sessions at
// denseShape: every persist boundary of recorded Batched executions,
// with other workers' windows open beside each one, so no checked
// boundary may lose an acknowledged op.
func TestStoreBatchedDL(t *testing.T) { storeBattery(t, store.Batched, denseShape) }

// TestStoreBatchedFencesAmortized: group commit must actually batch —
// the same seeded op vectors issue fewer PFence instructions (and no
// more PWBs) through a Batched session than through a Direct one.
// Single-worker, so the comparison is deterministic: with concurrency,
// readers of another window's in-flight (tagged) stores legitimately pay
// extra flushes, which only the macro benchmarks can weigh against the
// dedup wins.
func TestStoreBatchedFencesAmortized(t *testing.T) {
	const ops, keys = 54, 8
	for seed := int64(1); seed <= 6; seed++ {
		var stats [2]pmem.Stats
		for i, mode := range []store.SessionMode{store.Direct, store.Batched} {
			st := newDLStore(t, core.PolicyHT, dstruct.Automatic)
			ex := executors(st, mode)()
			rng := rand.New(rand.NewSource(seed))
			vec, res := make([]dlcheck.BatchOp, 0, dlMaxBatch), make([]hist.Answer, dlMaxBatch)
			for n := 0; n < ops; n += len(vec) {
				vec = vec[:0]
				for range 1 + rng.Intn(dlMaxBatch) {
					vec = append(vec, drawStoreOp(rng, keys, n))
				}
				ex.ExecBatch(vec, res)
			}
			stats[i] = st.Mem().TotalStats()
			ex.close()
		}
		per, bat := stats[0], stats[1]
		t.Logf("seed %d: Direct %d PWBs, %d fences; Batched %d, %d", seed, per.PWBs, per.PFences, bat.PWBs, bat.PFences)
		if bat.PFences >= per.PFences {
			t.Errorf("seed %d: Batched issued %d fences, Direct %d: group commit is not amortizing",
				seed, bat.PFences, per.PFences)
		}
		if bat.PWBs > per.PWBs {
			t.Errorf("seed %d: Batched issued %d PWBs, Direct %d: deferral added flushes",
				seed, bat.PWBs, per.PWBs)
		}
	}
}

// TestStoreBatchedCheckerHasTeeth is storeTooth over Batched sessions:
// with persistence disabled the commit persists nothing, proving the
// battery checks the ack rule rather than the code path's shape.
func TestStoreBatchedCheckerHasTeeth(t *testing.T) { storeTooth(t, store.Batched, storeShape) }

// TestStoreBatchedDLCheckerHasTeeth is storeTooth over Batched sessions at
// denseShape.
func TestStoreBatchedDLCheckerHasTeeth(t *testing.T) { storeTooth(t, store.Batched, denseShape) }
