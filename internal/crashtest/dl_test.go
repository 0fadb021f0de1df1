package crashtest

import (
	"testing"

	"flit/internal/core"
	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/store"
)

func newDLStore(t *testing.T, policy string, mode dstruct.Mode) *store.Store {
	t.Helper()
	st, err := NewDLStore(policy, mode)
	if err != nil {
		t.Fatal(err)
	}
	return checkAccount(t, st)
}

// TestStoreDLEnumerated is the service-level systematic battery: the
// sharded store, every durability mode, every (budgeted) crash boundary
// recovered through the superblock probe and shard-parallel rebuild.
func TestStoreDLEnumerated(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, mode := range dstruct.Modes {
		t.Run(mode.String(), func(t *testing.T) {
			for _, seed := range seeds {
				st := newDLStore(t, core.PolicyHT, mode)
				opts := dlcheck.DefaultOptions(seed)
				if testing.Short() {
					opts.Budget = 48
				} else {
					opts.Budget = 0
				}
				rep := RunStoreDL(st, store.Direct, 0, opts)
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

// TestStoreReshardDLEnumerated recovers every (budgeted) crash state of
// live four-shard traffic — Direct sessions, then Combined ones — through
// a reshard to six shards: a reshard moves keys, it must not create or
// lose one, whatever the crash left in flight.
func TestStoreReshardDLEnumerated(t *testing.T) {
	for _, sm := range []store.SessionMode{store.Direct, store.Combined} {
		t.Run(sm.String(), func(t *testing.T) {
			opts := dlcheck.DefaultOptions(1)
			if testing.Short() {
				opts.Budget = 48
			} else {
				opts.Budget = 0
			}
			rep := RunStoreDL(newDLStore(t, core.PolicyHT, dstruct.Automatic), sm, 6, opts)
			if rep.Violation != nil {
				t.Fatal(rep.Violation)
			}
			if rep.Records == 0 || rep.Points < 2 {
				t.Fatalf("thin run: %+v", rep)
			}
		})
	}
}

// TestStructureDLEnumeratedViaTargets spot-checks the Target→dlcheck
// adapter used by flitcrash (the structure batteries themselves
// live with the structures, via dstest.DLCheck).
func TestStructureDLEnumeratedViaTargets(t *testing.T) {
	target := Targets()[0] // list
	cfg := dlcheck.NewConfig(core.NewFliT(core.NewHashTable(1<<14)), dstruct.Automatic)
	rep := dlcheck.RunSet(cfg, target.Target, dlcheck.DefaultOptions(1))
	if rep.Violation != nil {
		t.Fatal(rep.Violation)
	}
	if rep.Records == 0 || rep.Fences == 0 {
		t.Fatalf("thin run: %+v", rep)
	}
}
