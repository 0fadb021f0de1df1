package crashtest

import (
	"fmt"
	"testing"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/pheap"
	"flit/internal/pmem"
	"flit/internal/store"
	"flit/internal/workload"
)

func newCrashStore(t *testing.T, policy string) *store.Store {
	return newCrashStoreMode(t, policy, dstruct.Automatic)
}

func newCrashStoreMode(t *testing.T, policy string, mode dstruct.Mode) *store.Store {
	t.Helper()
	st, err := store.New(store.Options{
		Shards: 8, ExpectedKeys: 1 << 12, Policy: policy, HTBytes: 1 << 14, Mode: mode,
		// Crash rounds never read a latency number; the virtual clock
		// keeps the modeled costs without burning their wall time.
		VirtualClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreDurableLinearizability is the service-level analogue of
// TestDurableLinearizability: whole-store histories across sessions,
// crash injection, shard-parallel recovery, per-key exact checking.
func TestStoreDurableLinearizability(t *testing.T) {
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
		// The service layer leans on Upsert's in-place value p-store;
		// exercise it under every durability mode for the FliT policy,
		// automatic-only for the rest.
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
						verdict, err := RunStore(st, store.Direct, opts)
						if err != nil {
							t.Fatal(err)
						}
						if verdict.Violation != nil {
							t.Fatalf("mode %v crash mode %v seed %d: %v", mode, cm, seed, verdict.Violation)
						}
						if len(verdict.Recovery.Shards) != 8 {
							t.Fatalf("recovery covered %d shards, want 8", len(verdict.Recovery.Shards))
						}
						// The recovered store must stay operational.
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

// TestStoreCheckerHasTeeth: the no-persist baseline under DropUnfenced
// must lose completed operations — and the checker must notice.
func TestStoreCheckerHasTeeth(t *testing.T) {
	caught := false
	for seed := int64(1); seed <= 6 && !caught; seed++ {
		st := newCrashStore(t, core.PolicyNoPersist)
		workload.Load(st, 200, 2)
		opts := DefaultStoreOptions(seed, pmem.DropUnfenced)
		opts.KeyRange = 300
		opts.KeyOf = workload.Key
		verdict, err := RunStore(st, store.Direct, opts)
		if err != nil {
			t.Fatal(err)
		}
		caught = verdict.Violation != nil
	}
	if !caught {
		t.Fatal("no-persist store passed the crash checker — the store harness has no teeth")
	}
}

// TestStoreRepeatedCrashCycles chains crash→recover→mutate rounds on one
// store lineage.
func TestStoreRepeatedCrashCycles(t *testing.T) {
	st := newCrashStore(t, core.PolicyHT)
	workload.Load(st, 300, 2)
	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		opts := DefaultStoreOptions(int64(100+round), pmem.RandomSubset)
		opts.KeyRange = 400
		opts.KeyOf = workload.Key
		verdict, err := RunStore(st, store.Direct, opts)
		if err != nil {
			t.Fatal(err)
		}
		if verdict.Violation != nil {
			t.Fatalf("round %d: %v", round, verdict.Violation)
		}
		st = verdict.Store
		// Mutate between crashes so each round persists fresh state.
		sess := store.Open[string](st, store.Direct)
		for i := 0; i < 50; i++ {
			sess.Put(fmt.Sprintf("round%d-%d", round, i), uint64(i))
		}
	}
}

// --- Recovery edge cases -------------------------------------------------
//
// The paths below were previously untested: a crash landing *inside*
// store.New's superblock persist sequence, and a crash landing during
// recovery itself (before the rebuilt store has fenced anything new).

// TestStoreRecoverySuperblockEdges enumerates the states a crash during
// the superblock persist can leave and requires a clean error — never a
// panic or a fabricated store — from recovery.
func TestStoreRecoverySuperblockEdges(t *testing.T) {
	mkMem := func() (*pmem.Memory, *pmem.Thread) {
		mc := pmem.DefaultConfig(1 << 14)
		mc.VirtualClock = true
		mem := pmem.New(mc)
		return mem, mem.RegisterThread()
	}
	recover_ := func(mem *pmem.Memory) error {
		_, _, err := store.Recover(mem, 0, store.Options{Policy: core.PolicyHT})
		return err
	}

	// (a) Crash before the root pointer persisted: empty memory.
	mem, _ := mkMem()
	if err := recover_(mem); err == nil {
		t.Fatal("recovery fabricated a store from empty memory")
	}

	// (b) Root persisted but pointing at an unpersisted superblock (the
	// magic word never reached the shadow). writeSuperblock fences the
	// contents before the root, so this state needs an adversarial image —
	// exactly what DropUnfenced gives when only the root store is fenced.
	mem, th := mkMem()
	heap := pheap.NewWithRoots(mem, 5)
	sb := pmem.Addr(1 << 10)
	th.Store(heap.Root(0), uint64(sb)) // root → sb, but sb's magic stays 0
	th.PWB(heap.Root(0))
	th.PFence()
	img := mem.CrashImage(pmem.DropUnfenced, 0)
	if err := recover_(pmem.NewFromImage(img, mem.Config())); err == nil {
		t.Fatal("recovery accepted a superblock whose magic never persisted")
	}

	// (c) Persisted superblock with a corrupt shard count.
	mem, th = mkMem()
	heap = pheap.NewWithRoots(mem, 5)
	for i, v := range []uint64{store.Magic2, store.MaxShards + 5, 16} {
		th.Store(sb+pmem.Addr(i), v)
		th.PWB(sb + pmem.Addr(i))
	}
	th.PFence()
	th.Store(heap.Root(0), uint64(sb))
	th.PWB(heap.Root(0))
	th.PFence()
	if err := recover_(mem); err == nil {
		t.Fatal("recovery accepted an out-of-range shard count")
	}
}

// TestStoreRecoveryIdempotentAndCrashDuringRecovery: (1) two independent
// recoveries from one torn image agree — recovery must not depend on its
// own side effects; (2) a crash immediately after (equivalently: at any
// point during) recovery, dropping everything recovery left unfenced,
// recovers to the same contents again.
func TestStoreRecoveryIdempotentAndCrashDuringRecovery(t *testing.T) {
	st := newCrashStore(t, core.PolicyHT)
	workload.Load(st, 200, 2)
	// Interrupt a session mid-stream so the image is genuinely torn.
	sess := store.Open[string](st, store.Direct)
	sess.Thread().SetCrashAfter(700)
	pmem.RunToCrash(func() {
		for i := 0; ; i++ {
			key := workload.Key(uint64(i % 300))
			if i%3 == 0 {
				sess.Delete(key)
			} else {
				sess.Put(key, uint64(i))
			}
		}
	})
	wm := st.Heap().Watermark()
	img := st.Mem().CrashImage(pmem.RandomSubset, 42)

	recoverFrom := func(img []uint64) (*store.Store, map[uint64]uint64) {
		t.Helper()
		mem := pmem.NewFromImage(img, st.Mem().Config())
		st2, _, err := store.Recover(mem, wm, st.Opts())
		if err != nil {
			t.Fatal(err)
		}
		return st2, st2.Snapshot()
	}

	st1, snap1 := recoverFrom(img)
	_, snap2 := recoverFrom(img)
	if len(snap1) != len(snap2) {
		t.Fatalf("independent recoveries disagree: %d vs %d keys", len(snap1), len(snap2))
	}
	for k, v := range snap1 {
		if snap2[k] != v {
			t.Fatalf("independent recoveries disagree on key %#x: %d vs %d", k, v, snap2[k])
		}
	}

	// Crash again before the recovered store persists anything new:
	// everything recovery wrote but never fenced is dropped.
	img2 := st1.Mem().CrashImage(pmem.DropUnfenced, 0)
	_, snap3 := recoverFrom(img2)
	if len(snap3) != len(snap1) {
		t.Fatalf("crash during recovery lost keys: %d vs %d", len(snap3), len(snap1))
	}
	for k, v := range snap1 {
		if snap3[k] != v {
			t.Fatalf("crash during recovery corrupted key %#x: %d vs %d", k, v, snap3[k])
		}
	}
}
