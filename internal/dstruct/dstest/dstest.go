// Package dstest is a reusable test battery for the durable sets: every
// data structure package runs the same sequential-model, concurrent-stress
// and clean-recovery suites across all (policy × durability mode)
// combinations, so a regression in any pairing is caught uniformly.
package dstest

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"flit/internal/core"
	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/pheap"
	"flit/internal/pmem"
)

// Instance is a live data structure under test.
type Instance = dlcheck.Instance

// Factory builds a fresh instance over cfg.
type Factory func(cfg dstruct.Config) Instance

// Recoverer rebuilds an instance from a crash image already loaded into
// cfg.Heap.
type Recoverer func(cfg dstruct.Config) Instance

// Policies returns the standard policy matrix. memWords sizes DirectMap.
// withLAP excludes link-and-persist for structures it cannot instrument
// (the BST).
func Policies(memWords int, withLAP bool) []core.Policy {
	ps := []core.Policy{
		core.NewFliT(core.NewHashTable(1 << 16)),
		core.NewFliT(core.Adjacent{}),
		core.NewFliT(core.NewPackedHashTable(1 << 12)),
		core.NewFliT(core.NewDirectMap(memWords)),
		core.NewPlain(),
		core.NewIzraelevitz(),
		core.NoPersist{},
	}
	if withLAP {
		ps = append(ps, core.LinkAndPersist{})
	}
	return ps
}

// Configs enumerates (policy × mode) over fresh heaps of memWords words.
func Configs(memWords int, withLAP bool) []dstruct.Config {
	var out []dstruct.Config
	for _, pol := range Policies(memWords, withLAP) {
		for _, mode := range dstruct.Modes {
			cfg := pmem.DefaultConfig(memWords)
			// Correctness batteries never read a latency number: the
			// virtual clock keeps the modeled costs at spin-free speed.
			cfg.VirtualClock = true
			h := pheap.New(pmem.New(cfg))
			out = append(out, dstruct.Config{
				Heap: h, Policy: pol, Mode: mode, RootSlot: 0, Stride: dstruct.StrideFor(pol),
			})
		}
	}
	return out
}

// Label names a config for subtests.
func Label(cfg dstruct.Config) string { return cfg.Policy.Name() + "/" + cfg.Mode.String() }

// Scale returns n in the default run and n/div (floored at 1) under
// -short, so slow suites shrink without losing default-run coverage.
func Scale(n, div int) int {
	if testing.Short() {
		n /= div
		if n < 1 {
			n = 1
		}
	}
	return n
}

// ShortConfigs trims a Configs matrix under -short to one FliT counter
// scheme plus the plain and link-and-persist baselines (the three
// persistence-ordering behaviours that differ); the default run keeps the
// full matrix.
func ShortConfigs(cfgs []dstruct.Config) []dstruct.Config {
	if !testing.Short() {
		return cfgs
	}
	var out []dstruct.Config
	for _, c := range cfgs {
		name := c.Policy.Name()
		if strings.HasPrefix(name, "flit-HT") || name == "plain" || name == "link-and-persist" {
			out = append(out, c)
		}
	}
	return out
}

// DLConfigs enumerates the (policy × mode) combinations the systematic
// durable-linearizability battery checks: the flit-HT scheme across every
// durability mode, plus one representative of each other persistence-
// ordering behaviour under automatic. Heaps are small (dlcheck.Words) and
// run on the virtual clock.
func DLConfigs(withLAP bool) []dstruct.Config {
	mk := dlcheck.NewConfig
	var out []dstruct.Config
	for _, mode := range dstruct.Modes {
		out = append(out, mk(core.NewFliT(core.NewHashTable(1<<14)), mode))
	}
	out = append(out,
		mk(core.NewFliT(core.Adjacent{}), dstruct.Automatic),
		mk(core.NewPlain(), dstruct.Automatic),
		mk(core.NewIzraelevitz(), dstruct.Automatic),
	)
	if withLAP {
		out = append(out, mk(core.LinkAndPersist{}, dstruct.Automatic))
	}
	return out
}

// DLCheck runs the systematic crash-point enumeration battery
// (internal/dlcheck) against one structure configuration: a recorded
// concurrent execution is checked for durable linearizability at every
// (budgeted) PWB/PFence boundary. The full default run enumerates every
// boundary; -short bounds the budget.
func DLCheck(t *testing.T, name string, cfg dstruct.Config, f Factory, r Recoverer, seed int64) {
	t.Helper()
	opts := dlcheck.DefaultOptions(seed)
	if testing.Short() {
		opts.Budget = 48
	} else {
		opts.Budget = 0
	}
	rep := dlcheck.RunSet(cfg, dlcheck.Target{Name: name, New: f, Recover: r}, opts)
	if rep.Violation != nil {
		t.Fatalf("dlcheck: %v", rep.Violation)
	}
	if _, isNoPersist := cfg.Policy.(core.NoPersist); !isNoPersist && rep.Records == 0 {
		t.Fatal("dlcheck: no persist records traced — tracer unwired?")
	}
}

// SequentialModel drives random single-threaded operations against a map
// model and verifies every response and the final snapshot.
func SequentialModel(t *testing.T, cfg dstruct.Config, f Factory, keyRange int, ops int) {
	t.Helper()
	inst := f(cfg)
	th := inst.Set.NewThread()
	defer th.Close()
	model := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < ops; i++ {
		k := uint64(rng.Intn(keyRange))
		switch rng.Intn(3) {
		case 0:
			v := uint64(i + 1)
			_, in := model[k]
			if got := th.Insert(k, v); got != !in {
				t.Fatalf("op %d: Insert(%d) = %v, model %v", i, k, got, !in)
			}
			if !in {
				model[k] = v
			}
		case 1:
			_, in := model[k]
			if got := th.Delete(k); got != in {
				t.Fatalf("op %d: Delete(%d) = %v, model %v", i, k, got, in)
			}
			delete(model, k)
		default:
			_, in := model[k]
			if got := th.Contains(k); got != in {
				t.Fatalf("op %d: Contains(%d) = %v, model %v", i, k, got, in)
			}
		}
	}
	snap := inst.Snapshot()
	if len(snap) != len(model) {
		t.Fatalf("snapshot size %d, model %d", len(snap), len(model))
	}
	for k, v := range model {
		if snap[k] != v {
			t.Fatalf("snapshot[%d] = %d, want %d", k, snap[k], v)
		}
	}
}

// ConcurrentStress hammers the set from several goroutines and checks that
// final size equals successful inserts minus deletes.
func ConcurrentStress(t *testing.T, cfg dstruct.Config, f Factory, keyRange, workers, iters int) {
	t.Helper()
	inst := f(cfg)
	var ins, del [16]int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := inst.Set.NewThread()
			defer th.Close()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < iters; i++ {
				k := uint64(rng.Intn(keyRange))
				switch rng.Intn(3) {
				case 0:
					if th.Insert(k, uint64(w+1)) {
						ins[w]++
					}
				case 1:
					if th.Delete(k) {
						del[w]++
					}
				default:
					th.Contains(k)
				}
			}
		}(w)
	}
	wg.Wait()
	tIns, tDel := 0, 0
	for w := 0; w < workers; w++ {
		tIns += ins[w]
		tDel += del[w]
	}
	if got := len(inst.Snapshot()); got != tIns-tDel {
		t.Fatalf("size %d, want %d-%d = %d", got, tIns, tDel, tIns-tDel)
	}
}

// CleanRecovery populates a set, takes a DropUnfenced crash image after
// quiescence, recovers, and verifies contents and operability.
func CleanRecovery(t *testing.T, cfg dstruct.Config, f Factory, r Recoverer, n int) {
	t.Helper()
	inst := f(cfg)
	th := inst.Set.NewThread()
	defer th.Close()
	model := map[uint64]uint64{}
	for i := 0; i < n; i++ {
		k := uint64(i)
		th.Insert(k, k*7+1)
		model[k] = k*7 + 1
	}
	for i := 0; i < n; i += 3 {
		th.Delete(uint64(i))
		delete(model, uint64(i))
	}
	wm := cfg.Heap.Watermark()
	img := cfg.Heap.Mem().CrashImage(pmem.DropUnfenced, 99)

	mem2 := pmem.NewFromImage(img, cfg.Heap.Mem().Config())
	cfg2 := cfg
	cfg2.Heap = pheap.Recover(mem2, wm)
	rec := r(cfg2)
	snap := rec.Snapshot()
	if len(snap) != len(model) {
		t.Fatalf("recovered %d keys, want %d", len(snap), len(model))
	}
	for k, v := range model {
		if snap[k] != v {
			t.Fatalf("recovered[%d] = %d, want %d", k, snap[k], v)
		}
	}
	th2 := rec.Set.NewThread()
	defer th2.Close()
	if !th2.Insert(uint64(n+1000), 5) || !th2.Contains(uint64(n+1000)) || !th2.Delete(uint64(n+1000)) {
		t.Fatal("recovered structure not operational")
	}
}

// RepeatedCrashes exercises durable linearizability across several crash
// events (the paper's Definition covers any number of crashes): populate,
// crash, recover, mutate, crash again, recover again — contents must track
// the model at every step.
func RepeatedCrashes(t *testing.T, cfg dstruct.Config, f Factory, r Recoverer, rounds int) {
	t.Helper()
	inst := f(cfg)
	model := map[uint64]uint64{}
	th := inst.Set.NewThread()
	defer th.Close()
	for i := uint64(0); i < 100; i++ {
		th.Insert(i, i+1)
		model[i] = i + 1
	}
	cur := inst
	curCfg := cfg
	for round := 0; round < rounds; round++ {
		wm := curCfg.Heap.Watermark()
		img := curCfg.Heap.Mem().CrashImage(pmem.RandomSubset, int64(1000+round))
		mem := pmem.NewFromImage(img, curCfg.Heap.Mem().Config())
		nextCfg := curCfg
		nextCfg.Heap = pheap.Recover(mem, wm)
		cur = r(nextCfg)
		curCfg = nextCfg

		snap := cur.Snapshot()
		if len(snap) != len(model) {
			t.Fatalf("round %d: recovered %d keys, want %d", round, len(snap), len(model))
		}
		for k, v := range model {
			if snap[k] != v {
				t.Fatalf("round %d: key %d = %d, want %d", round, k, snap[k], v)
			}
		}
		// Mutate between crashes so each round persists fresh state.
		th := cur.Set.NewThread()
		base := uint64(1000 * (round + 1))
		for i := uint64(0); i < 50; i++ {
			th.Insert(base+i, base+i)
			model[base+i] = base + i
		}
		for i := uint64(0); i < 20; i++ {
			k := uint64(round*20) + i
			if _, ok := model[k]; ok {
				th.Delete(k)
				delete(model, k)
			}
		}
		th.Close()
	}
}
