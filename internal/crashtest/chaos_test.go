package crashtest

import (
	"testing"

	"flit/internal/core"
	"flit/internal/store"
)

func chaosStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.New(store.Options{
		Shards: 4, ExpectedKeys: 1 << 12, Policy: core.PolicyHT,
		HTBytes: 1 << 16, VirtualClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return checkAccount(t, st)
}

// TestChaosBattery runs every standard scenario: whatever the fault
// schedule destroys, every acknowledged operation must survive a
// DropUnfenced crash.
func TestChaosBattery(t *testing.T) {
	for _, sc := range ChaosScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			v, err := RunStoreChaos(chaosStore(t), sc, 42)
			if err != nil {
				t.Fatal(err)
			}
			if v.Violation != nil {
				t.Fatalf("acked op lost: %v", v.Violation)
			}
			if v.Acked == 0 {
				t.Fatalf("scenario recorded no acked ops (shed=%d lost=%d) — it exercised nothing", v.Shed, v.Lost)
			}
			t.Logf("%s: acked=%d shed=%d lost=%d redials=%d serverShed=%d",
				sc.Name, v.Acked, v.Shed, v.Lost, v.Redials,
				v.ServerStats.ShedBusy+v.ServerStats.ShedDraining)
		})
	}
}

// TestChaosScenarioShapes pins per-scenario expectations: each cell must
// actually trigger its fault family, or the battery is vacuous.
func TestChaosScenarioShapes(t *testing.T) {
	for _, sc := range ChaosScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			v, err := RunStoreChaos(chaosStore(t), sc, 7)
			if err != nil {
				t.Fatal(err)
			}
			switch sc.Name {
			case "overload-shed":
				if v.Shed == 0 {
					t.Fatalf("overload cell shed nothing: %+v", v)
				}
				serverShed := v.ServerStats.ShedBusy + v.ServerStats.ShedDraining
				// No transport faults: every shed the server counted was
				// delivered to and counted by a client.
				if uint64(v.Shed) != serverShed {
					t.Fatalf("client counted %d sheds, server %d", v.Shed, serverShed)
				}
			case "reset-mid-pipeline", "blackhole":
				if v.Lost == 0 {
					t.Fatalf("%s lost no responses: %+v", sc.Name, v)
				}
				if v.Redials == 0 {
					t.Fatalf("%s never redialed: %+v", sc.Name, v)
				}
			case "slow-reader-reap":
				if v.ServerStats.ConnErrors["slow_reader"] == 0 {
					t.Fatalf("write budget never reaped a stalled reader: %+v", v.ServerStats.ConnErrors)
				}
			case "drain-mid-run":
				if v.ServerStats.ShedDraining == 0 && v.Lost == 0 {
					t.Fatalf("drain cell neither rejected nor cut anything: %+v", v)
				}
				if !v.ServerStats.Draining {
					t.Fatal("server does not report draining after Shutdown")
				}
			case "drain-deep-pipeline":
				if v.ServerStats.ShedDraining == 0 {
					t.Fatalf("drain found no buffered window to answer DRAINING: %+v", v)
				}
			}
		})
	}
}

// TestChaosBrokenDrainToothBites runs the deliberately broken drain
// (acks without the group-commit fence). The battery MUST flag it: a
// green result here means the harness has lost its ability to detect
// the very bug class it exists for.
func TestChaosBrokenDrainToothBites(t *testing.T) {
	v, err := RunStoreChaos(chaosStore(t), BrokenDrainScenario(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if v.Violation == nil {
		t.Fatalf("broken drain was NOT detected (acked=%d shed=%d lost=%d) — the battery is toothless",
			v.Acked, v.Shed, v.Lost)
	}
	t.Logf("tooth bit as required: %v", v.Violation)
}
