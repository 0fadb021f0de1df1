package crashtest

import (
	"testing"

	"flit/internal/core"
	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/store"
)

// TestStoreBatchedDurableLinearizability is storeBattery over the batched
// (group-commit) request path: pipelined batches, crash boundaries
// between and inside batches — a batch whose commit fence has not
// drained leaves its operations pending — and the ack rule under test
// that nothing responds before its batch's commit fence.
func TestStoreBatchedDurableLinearizability(t *testing.T) { storeBattery(t, store.Batched, storeShape) }

// TestStoreBatchedDL is storeBattery over the batched path at
// denseShape: every persist boundary of recorded batched executions. This
// is the enumeration the server's ack rule rests on: a response only ever
// follows its batch's commit fence, so no checked boundary may lose an
// acknowledged op.
func TestStoreBatchedDL(t *testing.T) { storeBattery(t, store.Batched, denseShape) }

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

// TestStoreBatchedCheckerHasTeeth is storeTooth over the batched path:
// with persistence disabled the commit persists nothing, proving the
// battery checks the ack rule rather than the code path's shape.
func TestStoreBatchedCheckerHasTeeth(t *testing.T) { storeTooth(t, store.Batched, storeShape) }

// TestStoreBatchedDLCheckerHasTeeth is storeTooth over the batched path at
// denseShape.
func TestStoreBatchedDLCheckerHasTeeth(t *testing.T) { storeTooth(t, store.Batched, denseShape) }
