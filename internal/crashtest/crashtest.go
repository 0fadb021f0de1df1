// Package crashtest drives randomized crash-recovery validation: worker
// threads run recorded operations against a durable set, each crashing at
// a seeded instruction countdown (anywhere a real power failure could
// land); the persistent image is materialized under a chosen CrashMode,
// recovered, and the surviving state is checked for durable
// linearizability with the hist checker.
package crashtest

import (
	"math/rand"
	"sync"

	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/dstruct/bst"
	"flit/internal/dstruct/hashtable"
	"flit/internal/dstruct/list"
	"flit/internal/dstruct/lockmap"
	"flit/internal/dstruct/skiplist"
	"flit/internal/hist"
	"flit/internal/pheap"
	"flit/internal/pmem"
)

// Instance couples a set with a quiescent snapshot function.
type Instance = dlcheck.Instance

// Target describes one data structure under crash test — the same
// registry entry feeds the randomized rounds (Run) and, through the
// embedded dlcheck.Target, the systematic enumerator (dlcheck.RunSet).
type Target struct {
	dlcheck.Target
	// WithLAP reports whether link-and-persist applies (false for the BST).
	WithLAP bool
}

// targetOf builds a registry entry from a structure's constructor pair.
func targetOf[S interface {
	dstruct.Set
	Snapshot() map[uint64]uint64
}](name string, withLAP bool, create, recover func(dstruct.Config) S) Target {
	inst := func(f func(dstruct.Config) S) func(dstruct.Config) Instance {
		return func(cfg dstruct.Config) Instance {
			s := f(cfg)
			return Instance{Set: s, Snapshot: s.Snapshot}
		}
	}
	return Target{dlcheck.Target{Name: name, New: inst(create), Recover: inst(recover)}, withLAP}
}

// Targets enumerates the paper's four lock-free structures plus the
// lock-based map (§7's extension).
func Targets() []Target {
	return []Target{
		targetOf("list", true, list.New, list.Recover),
		targetOf("hashtable", true, func(cfg dstruct.Config) *hashtable.Table { return hashtable.New(cfg, 8) }, hashtable.Recover),
		targetOf("skiplist", true, skiplist.New, skiplist.Recover),
		targetOf("lockmap", true, func(cfg dstruct.Config) *lockmap.Map { return lockmap.New(cfg, 8) }, lockmap.Recover),
		targetOf("bst", false, bst.New, bst.Recover),
	}
}

// Options parameterizes one crash run.
type Options struct {
	Workers   int
	KeyRange  int   // keys in [0, KeyRange); sized so per-key histories stay < 64 ops
	Prefill   int   // keys [0, Prefill) inserted before the recorded run
	MaxOps    int   // per-worker op budget (workers usually crash first)
	MinCrash  int64 // instruction-countdown bounds per worker
	MaxCrash  int64
	CrashMode pmem.CrashMode
	Seed      int64
}

// DefaultOptions returns a configuration tuned so the checker stays exact
// (per-key histories under 64 ops) while crashes land mid-operation.
func DefaultOptions(seed int64, mode pmem.CrashMode) Options {
	return Options{
		Workers: 4, KeyRange: 24, Prefill: 12, MaxOps: 120,
		MinCrash: 50, MaxCrash: 4000,
		CrashMode: mode, Seed: seed,
	}
}

// Run executes one seeded crash-recovery round and returns the checker's
// verdict (nil = durably linearizable) plus the recovered instance for
// further inspection.
func Run(cfg dstruct.Config, target Target, opts Options) (*hist.Violation, Instance) {
	inst := target.New(cfg)

	// Prefill with completed inserts outside the recorded history.
	setup := inst.Set.NewThread()
	initial := make(map[uint64]bool, opts.Prefill)
	for k := 0; k < opts.Prefill; k++ {
		setup.Insert(uint64(k), uint64(k)+1000)
		initial[uint64(k)] = true
	}
	setup.Close()

	clock := &hist.Clock{}
	rng := rand.New(rand.NewSource(opts.Seed))
	recs := make([]*hist.Recorder, opts.Workers)
	threads := make([]dstruct.SetThread, opts.Workers)
	seeds := make([]int64, opts.Workers)
	for w := range threads {
		recs[w] = hist.NewRecorder(clock)
		threads[w] = inst.Set.NewThread()
		// Arm the deterministic instruction-countdown crash on the
		// handle's pmem thread.
		ctxOf(threads[w]).T.SetCrashAfter(opts.MinCrash + rng.Int63n(opts.MaxCrash-opts.MinCrash+1))
		seeds[w] = rng.Int63()
	}

	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := threads[w]
			rec := recs[w]
			wrng := rand.New(rand.NewSource(seeds[w]))
			pmem.RunToCrash(func() {
				for i := 0; i < opts.MaxOps; i++ {
					k := uint64(wrng.Intn(opts.KeyRange))
					switch wrng.Intn(3) {
					case 0:
						tok := rec.Begin(hist.Insert, k)
						rec.Finish(tok, th.Insert(k, uint64(i)))
					case 1:
						tok := rec.Begin(hist.Delete, k)
						rec.Finish(tok, th.Delete(k))
					default:
						tok := rec.Begin(hist.Contains, k)
						rec.Finish(tok, th.Contains(k))
					}
				}
			})
		}(w)
	}
	wg.Wait()

	wm := cfg.Heap.Watermark()
	img := cfg.Heap.Mem().CrashImage(opts.CrashMode, opts.Seed^0x5ca1ab1e)
	// Only now: releasing a pmem thread discards the write-backs a crashed
	// worker left pending, which the image above had to see.
	for _, th := range threads {
		th.Close()
	}
	mem2 := pmem.NewFromImage(img, cfg.Heap.Mem().Config())
	cfg2 := cfg
	cfg2.Heap = pheap.Recover(mem2, wm)
	rec2 := target.Recover(cfg2)

	final := make(map[uint64]bool)
	for k := range rec2.Snapshot() {
		final[k] = true
	}
	return hist.Check(recs, initial, final), rec2
}

// ctxOf extracts the dstruct.Ctx from any target's thread type.
func ctxOf(th dstruct.SetThread) *dstruct.Ctx {
	type hasCtx interface{ Ctx() *dstruct.Ctx }
	return th.(hasCtx).Ctx()
}
