package crashtest

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"flit/internal/core"
	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/hist"
	"flit/internal/pheap"
	"flit/internal/pmem"
)

// policies under crash test. DirectMap is covered in dstest; here we focus
// on the schemes with distinct persistence-ordering behaviour.
func policies(withLAP bool) []core.Policy {
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

// setShape is the registry battery's shape: four workers of 120
// operations over 24 keys, half of them prefilled — longer chains, deeper
// trees and more node reuse than the enumerator's dense default — with a
// strided sample of 32 boundaries per recorded execution.
func setShape(seed int64) dlcheck.Options {
	return dlcheck.Options{Workers: 4, OpsPerWorker: 120, KeyRange: 24, Prefill: 12, Budget: 32, Seed: seed}
}

// crashSetMidRun is the set battery's countdown round at shape: it
// inserts keys [0, shape.Prefill), arms a seeded countdown of 50 to 4000
// instructions on each of shape.Workers threads, and runs their recorded
// operations until each crashes or finishes its shape.OpsPerWorker. The cm
// image is recovered and checked against the history; the recovered
// instance, rebuilt from whatever the crash left dirty, is returned for
// further use.
func crashSetMidRun(cfg dstruct.Config, target Target, shape dlcheck.Options, cm pmem.CrashMode) (*hist.Violation, Instance) {
	inst := target.New(cfg)
	setup := inst.Set.NewThread()
	initial := make(map[uint64]uint64, shape.Prefill)
	for k := range uint64(shape.Prefill) {
		setup.Insert(k, k+1000)
		initial[k] = k + 1000
	}
	setup.Close()

	clock := &hist.Clock{}
	rng := rand.New(rand.NewSource(shape.Seed))
	recs := make([]*hist.Recorder, shape.Workers)
	threads := make([]dstruct.SetThread, shape.Workers)
	seeds := make([]int64, shape.Workers)
	for w := range threads {
		recs[w], threads[w], seeds[w] = hist.NewRecorder(clock), inst.Set.NewThread(), rng.Int63()
		threads[w].(interface{ Ctx() *dstruct.Ctx }).Ctx().T.SetCrashAfter(50 + rng.Int63n(3951))
	}
	var wg sync.WaitGroup
	for w := range threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seeds[w]))
			pmem.RunToCrash(func() {
				for n := range uint64(shape.OpsPerWorker) {
					kind, key := hist.Kind(wrng.Intn(3)), uint64(wrng.Intn(shape.KeyRange))
					tok := recs[w].Begin(kind, key, n)
					recs[w].Finish(tok, applySet(threads[w], kind, key, n))
				}
			})
		}()
	}
	wg.Wait()

	wm := cfg.Heap.Watermark()
	img := cfg.Heap.Mem().CrashImage(cm, shape.Seed^crashSeed)
	// Only now: releasing a pmem thread discards the write-backs a crashed
	// worker left pending, which the image above had to see.
	for _, th := range threads {
		th.Close()
	}
	cfg2 := cfg
	cfg2.Heap = pheap.Recover(pmem.NewFromImage(img, cfg.Heap.Mem().Config()), wm)
	rec := target.Recover(cfg2)
	return hist.Check(recs, initial, rec.Snapshot()), rec
}

// TestDurableLinearizability is the central correctness experiment: every
// structure × durability mode × policy, across seeds, at setShape. Each
// checked boundary's fenced prefix and eviction image must recover a state
// explainable by some linearization; so must a RandomSubset image of a
// countdown crash that lands mid-operation. The structures recovered from
// that image and from the enumerated run's final image must stay usable.
func TestDurableLinearizability(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, target := range Targets() {
		for _, mode := range dstruct.Modes {
			pols := policies(target.WithLAP)
			if testing.Short() {
				// Keep one FliT scheme plus the plain baseline; the full
				// matrix runs in the default (scheduled/full) suite.
				pols = []core.Policy{pols[0], core.Plain{}}
			}
			for _, pol := range pols {
				name := fmt.Sprintf("%s/%s/%s", target.Name, mode, pol.Name())
				t.Run(name, func(t *testing.T) {
					for _, seed := range seeds {
						cfg := dlcheck.NewConfig(pol, mode)
						if rep := dlcheck.RunSet(cfg, target.Target, setShape(seed)); rep.Violation != nil {
							t.Fatalf("seed %d: %v", seed, rep.Violation)
						}
						v, crashed := crashSetMidRun(dlcheck.NewConfig(pol, mode), target, setShape(seed), pmem.RandomSubset)
						if v != nil {
							t.Fatalf("seed %d, countdown crash: %v", seed, v)
						}
						for _, rec := range []Instance{target.Recover(recoverOnto(cfg)), crashed} {
							th := rec.Set.NewThread()
							if !th.Insert(9999, 1) || !th.Contains(9999) || !th.Delete(9999) {
								t.Fatalf("seed %d: recovered set inoperable", seed)
							}
						}
					}
				})
			}
		}
	}
}

// brokenPolicy downgrades every instruction to a v-instruction: stores are
// never flushed, so completed inserts evaporate in the crash image. The
// checker must catch it — this validates that the whole crash-test
// apparatus has teeth.
type brokenPolicy struct{ core.Policy }

func (b brokenPolicy) Name() string { return "broken" }
func (b brokenPolicy) Load(t *pmem.Thread, a pmem.Addr, p bool) uint64 {
	return b.Policy.Load(t, a, false)
}
func (b brokenPolicy) Store(t *pmem.Thread, a pmem.Addr, v uint64, p bool) {
	b.Policy.Store(t, a, v, false)
}
func (b brokenPolicy) CAS(t *pmem.Thread, a pmem.Addr, old, new uint64, p bool) bool {
	return b.Policy.CAS(t, a, old, new, false)
}
func (b brokenPolicy) FAA(t *pmem.Thread, a pmem.Addr, d uint64, p bool) uint64 {
	return b.Policy.FAA(t, a, d, false)
}
func (b brokenPolicy) Exchange(t *pmem.Thread, a pmem.Addr, v uint64, p bool) uint64 {
	return b.Policy.Exchange(t, a, v, false)
}
func (b brokenPolicy) StorePrivate(t *pmem.Thread, a pmem.Addr, v uint64, p bool) {
	b.Policy.StorePrivate(t, a, v, false)
}
func (b brokenPolicy) PersistObject(t *pmem.Thread, a pmem.Addr, n int) {}

func TestBrokenPolicyIsCaught(t *testing.T) {
	// A policy that never persists must be detected, by the enumerator and
	// by the countdown round: the prefilled completed inserts cannot
	// survive.
	broken := brokenPolicy{core.NewFliT(core.NewHashTable(1 << 14))}
	for _, target := range Targets() {
		t.Run(target.Name, func(t *testing.T) {
			if rep := dlcheck.RunSet(dlcheck.NewConfig(broken, dstruct.Automatic), target.Target, setShape(1)); rep.Violation == nil {
				t.Fatal("broken policy passed the enumerator — the crash harness has no teeth")
			}
			caught := false
			for seed := int64(1); seed <= 4 && !caught; seed++ {
				v, _ := crashSetMidRun(dlcheck.NewConfig(broken, dstruct.Automatic), target, setShape(seed), pmem.DropUnfenced)
				caught = v != nil
			}
			if !caught {
				t.Fatal("broken policy passed the countdown round — it has no teeth")
			}
		})
	}
}

// TestPersistAllAlwaysCleanRecovers: under eADR-like semantics
// (pmem.PersistAll) everything volatile persists, so even the NoPersist
// policy must recover a durably linearizable state from countdown crashes
// that land mid-operation.
func TestPersistAllAlwaysCleanRecovers(t *testing.T) {
	for _, target := range Targets() {
		t.Run(target.Name, func(t *testing.T) {
			cfg := dlcheck.NewConfig(core.NoPersist{}, dstruct.Automatic)
			if v, _ := crashSetMidRun(cfg, target, setShape(77), pmem.PersistAll); v != nil {
				t.Fatalf("PersistAll violated: %v", v)
			}
		})
	}
}
