// Benchmarks regenerating every table and figure of the FliT paper's
// evaluation (§6), plus micro-benchmarks of the substrate. Each
// BenchmarkFigN runs the corresponding figure preset of internal/bench
// (short cells; use cmd/flitbench for longer, quieter runs) and logs the
// full table under -v; the headline quantity of each figure is emitted
// as a custom benchmark metric, read from the report by cell ID.
package flit_test

import (
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"flit/internal/bench"
	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/pheap"
	"flit/internal/pmem"
	"flit/internal/store"
	"flit/internal/workload"
)

// runFigure measures figure id at bench durations (small sizes only for
// Figure 8), logs its tables and returns the figure with the report they
// were rendered from.
func runFigure(b *testing.B, id string) (bench.Figure, *bench.Report) {
	b.Helper()
	f, ok := bench.FigurePreset(id, runtime.GOMAXPROCS(0), true, false)
	if !ok {
		b.Fatalf("figure %q missing", id)
	}
	f.Duration = 60 * time.Millisecond
	rep, err := f.Run()
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range f.Tables(rep) {
		b.Log("\n" + t.Format())
	}
	return f, rep
}

// bstCell is the automatic small-BST point the §6 headlines are read at.
func bstCell(policy string, updatePct int) bench.SetCell {
	return bench.SetCell{DS: "bst", Policy: policy, Mode: dstruct.Automatic, KeyRange: 10_000, UpdatePct: updatePct}
}

// BenchmarkFig5 regenerates Figure 5 (flit-HT size tuning, automatic BST).
// Metric: throughput ratio of the 1MB table over the 4KB table at 50%
// updates (the paper's collision collapse).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rep := runFigure(b, "5")
		small := bstCell(core.PolicyHT, 50)
		small.HTBytes = 4 << 10
		v4, v1m := rep.Mean(small.ID()+"/throughput"), rep.Mean(bstCell(core.PolicyHT, 50).ID()+"/throughput")
		if v4 > 0 {
			b.ReportMetric(v1m/v4, "x_1MB_over_4KB_at50upd")
		}
	}
}

// BenchmarkFig6 regenerates Figure 6 (thread scalability, automatic BST).
// Metric: flit-HT throughput at the host's core count, in Mops/s.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rep := runFigure(b, "6")
		// Figure 6 sweeps powers of two: the largest not above the cores.
		c := bstCell(core.PolicyHT, 5)
		for c.Threads = 1; c.Threads*2 <= runtime.GOMAXPROCS(0); c.Threads *= 2 {
		}
		b.ReportMetric(rep.Mean(c.ID()+"/throughput")/1e6, "Mops_flitHT_atCores")
	}
}

// BenchmarkFig7 regenerates Figure 7 (structures x durability x policy).
// Metrics: min and max flit-HT-over-plain speedups across all cells (the
// paper reports 2.17x..99.5x).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, rep := runFigure(b, "7")
		minS, maxS := 1e18, 0.0
		for _, c := range f.Set {
			if c.Policy != core.PolicyHT {
				continue
			}
			flit := rep.Mean(c.ID() + "/throughput")
			c.Policy = core.PolicyPlain
			if plain := rep.Mean(c.ID() + "/throughput"); plain > 0 {
				minS, maxS = min(minS, flit/plain), max(maxS, flit/plain)
			}
		}
		b.ReportMetric(minS, "x_speedup_min")
		b.ReportMetric(maxS, "x_speedup_max")
	}
}

// BenchmarkFig8 regenerates Figure 8 (update-ratio sweep, normalized to
// the non-persistent baseline). Small sizes only at bench durations; run
// flitbench for the large sweep. Metric: flit-HT fraction of baseline on
// the small BST at 0% updates (the paper shows near-1.0).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rep := runFigure(b, "8")
		if base := rep.Mean(bstCell(core.PolicyNoPersist, 0).ID() + "/throughput"); base > 0 {
			b.ReportMetric(rep.Mean(bstCell(core.PolicyHT, 0).ID()+"/throughput")/base, "frac_of_baseline_bst0upd")
		}
	}
}

// BenchmarkFig9 regenerates Figure 9 (flushes per operation). Metric:
// plain-over-flit-HT pwb ratio on the automatic list (the redundant
// flushes FliT eliminates).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rep := runFigure(b, "9")
		c := bench.SetCell{DS: "list", Policy: core.PolicyHT, Mode: dstruct.Automatic, KeyRange: 128, UpdatePct: 5}
		flit := rep.Mean(c.ID() + "/pwbs_per_op")
		c.Policy = core.PolicyPlain
		if flit > 0 {
			b.ReportMetric(rep.Mean(c.ID()+"/pwbs_per_op")/flit, "x_pwbs_plain_over_flit")
		}
	}
}

// BenchmarkAblations regenerates ablations A–E: clwb invalidation,
// packed flit-counters, per-cache-line counters (the paper's future-work
// variant), the original Izraelevitz et al. construction as the
// historical baseline, and skewed-access contention.
func BenchmarkAblations(b *testing.B) {
	for _, id := range bench.FigureIDs()[5:] {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runFigure(b, id)
			}
		})
	}
}

// --- bench-matrix adapter ---

// BenchmarkMatrixSmoke runs internal/bench's "smoke" preset, shortened,
// and re-emits every report cell through the Go-benchmark custom-metric
// channel — the thin adapter that keeps `go test -bench` output and the
// JSON report carrying the same numbers from the same fold.
func BenchmarkMatrixSmoke(b *testing.B) {
	m, ok := bench.Preset("smoke")
	if !ok {
		b.Fatal("smoke preset missing")
	}
	m.Duration = 30 * time.Millisecond
	m.Warmup = 15 * time.Millisecond
	m.Repeats = 1
	for i := 0; i < b.N; i++ {
		rep, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		bench.ReportMetrics(b, rep)
	}
}

// BenchmarkMatrixSmokeVClock is BenchmarkMatrixSmoke under pmem's
// virtual-clock cost mode: same modeled costs and near-identical
// pwbs/op cells, no calibrated spin loops. Skipping the spin burn collapses the
// YCSB load phases outright and — because per-op wall cost no longer
// carries spin-granularity noise — lets the measured windows shrink to a
// third while each still collects more ops than the longer spin-mode
// window does, for a ≥2x wall-clock win overall. Throughput cells are
// not comparable with the spin variant's; pwbs/op cells are identical.
func BenchmarkMatrixSmokeVClock(b *testing.B) {
	m, ok := bench.Preset("smoke")
	if !ok {
		b.Fatal("smoke preset missing")
	}
	m.Duration = 5 * time.Millisecond
	m.Warmup = 2 * time.Millisecond
	m.Repeats = 1
	m.VirtualClock = true
	for i := 0; i < b.N; i++ {
		rep, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		bench.ReportMetrics(b, rep)
	}
}

// --- substrate micro-benchmarks ---

func newBenchMem(b *testing.B) (*pmem.Memory, *pmem.Thread) {
	m := pmem.New(pmem.DefaultConfig(1 << 16))
	return m, m.RegisterThread()
}

// BenchmarkRawLoad measures an instrumented volatile load.
func BenchmarkRawLoad(b *testing.B) {
	_, th := newBenchMem(b)
	th.Store(64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Load(64)
	}
}

// BenchmarkPWBPFence measures a flush+fence pair — the cost FliT avoids.
func BenchmarkPWBPFence(b *testing.B) {
	_, th := newBenchMem(b)
	th.Store(64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.PWB(64)
		th.PFence()
	}
}

// BenchmarkPLoadUntagged measures FliT's p-load fast path (tag check, no
// flush): this is what every read in an automatic-mode traversal costs.
func BenchmarkPLoadUntagged(b *testing.B) {
	_, th := newBenchMem(b)
	pol := core.NewFliT(core.NewHashTable(1 << 20))
	pol.Store(th, 64, 1, core.P)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Load(th, 64, core.P)
	}
}

// BenchmarkPLoadPlain measures the plain policy's p-load (unconditional
// flush) for contrast.
func BenchmarkPLoadPlain(b *testing.B) {
	_, th := newBenchMem(b)
	pol := core.Plain{}
	pol.Store(th, 64, 1, core.P)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Load(th, 64, core.P)
		if i%64 == 0 {
			th.PFence() // drain the write-back queue as a real op would
		}
	}
}

// BenchmarkPStore measures a full Algorithm 4 shared p-store.
func BenchmarkPStore(b *testing.B) {
	_, th := newBenchMem(b)
	pol := core.NewFliT(core.NewHashTable(1 << 20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Store(th, 64, uint64(i), core.P)
	}
}

// newBenchSet builds and prefills ds under flit-HT, automatic, 10K keys.
func newBenchSet(b *testing.B, ds string, runFor time.Duration) dstruct.Set {
	b.Helper()
	c := bstCell(core.PolicyHT, 0)
	c.DS = ds
	inst, err := bench.NewInstance(c, false, runFor)
	if err != nil {
		b.Fatal(err)
	}
	return inst.Set
}

// BenchmarkSetContains measures a single-threaded automatic-mode Contains
// on each structure under flit-HT (10K keys).
func BenchmarkSetContains(b *testing.B) {
	for _, ds := range bench.DataStructures {
		b.Run(ds, func(b *testing.B) {
			th := newBenchSet(b, ds, 0).NewThread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.Contains(uint64(i*2654435761) % 10_000)
			}
		})
	}
}

// BenchmarkSetInsertDelete measures an automatic-mode insert+delete pair
// under flit-HT.
func BenchmarkSetInsertDelete(b *testing.B) {
	for _, ds := range bench.DataStructures {
		b.Run(ds, func(b *testing.B) {
			// 10 s of leak budget for the skiplist.
			th := newBenchSet(b, ds, 10*time.Second).NewThread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := uint64(i*2654435761)%10_000 + 1
				th.Insert(k, k)
				th.Delete(k)
			}
		})
	}
}

// --- FliT-Store service-layer benchmarks ---

// newBenchStore builds a flit-HT store from o (shards, sizing, clock).
func newBenchStore(b *testing.B, o store.Options) *store.Store {
	b.Helper()
	o.Policy = core.PolicyHT
	st, err := store.New(o)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// benchKeys prebuilds n canonical byte keys, so a timed loop pays for the
// store call and not for rendering its argument.
func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = workload.AppendKey(nil, uint64(i))
	}
	return keys
}

// BenchmarkStorePut measures the session upsert hot path: hash, shard
// route, durable insert-or-overwrite (8 shards, flit-HT, automatic). The
// virtual clock keeps the modelled persistence latency out of ns/op, which
// is then the software on the path; allocs/op must read 0.
func BenchmarkStorePut(b *testing.B) {
	const n = 1 << 15
	st := newBenchStore(b, store.Options{Shards: 8, ExpectedKeys: n, VirtualClock: true})
	sess := store.Open[[]byte](st, store.Direct)
	defer sess.Close()
	keys := benchKeys(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Put(keys[i&(n-1)], uint64(i))
	}
}

// BenchmarkStoreGet measures the read hot path on a loaded store (same
// configuration as BenchmarkStorePut).
func BenchmarkStoreGet(b *testing.B) {
	const n = 1 << 14
	st := newBenchStore(b, store.Options{Shards: 8, ExpectedKeys: n, VirtualClock: true})
	workload.Load(st, n, runtime.GOMAXPROCS(0))
	sess := store.Open[[]byte](st, store.Direct)
	defer sess.Close()
	keys := benchKeys(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := sess.Get(keys[uint64(i)*2654435761&(n-1)])
		benchSink += v
	}
}

// BenchmarkHashKey measures the key hash alone at one word, the canonical
// workload key (two words and a 4-byte tail) and eight words.
func BenchmarkHashKey(b *testing.B) {
	for _, n := range []int{8, 20, 64} {
		b.Run(strconv.Itoa(n)+"B", func(b *testing.B) {
			// A few keys in rotation: editing one key in the loop would
			// time the stall of a word load behind a byte store.
			var keys [8][]byte
			for k := range keys {
				key := workload.AppendKey(make([]byte, 0, 64), uint64(k))
				for len(key) < n {
					key = append(key, byte(len(key)))
				}
				keys[k] = key[len(key)-n:]
			}
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += store.HashKeyBytes(keys[i&7])
			}
		})
	}
}

// benchSink keeps measured results live.
var benchSink uint64

// BenchmarkStoreWorkload runs the YCSB-style mixes; each iteration is one
// timed window, with throughput and tail latency reported as metrics.
func BenchmarkStoreWorkload(b *testing.B) {
	const records = 10_000
	for _, mix := range []string{"a", "b", "c", "f"} {
		for _, dist := range []string{workload.DistUniform, workload.DistZipfian} {
			b.Run(mix+"/"+dist, func(b *testing.B) {
				st := newBenchStore(b, store.Options{Shards: 8, ExpectedKeys: records * 2})
				workload.Load(st, records, runtime.GOMAXPROCS(0))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := workload.Run(st, store.Direct, workload.Spec{
						Mix: mix, Dist: dist,
						Workers:  runtime.GOMAXPROCS(0),
						Duration: 50 * time.Millisecond,
						Records:  records, Seed: int64(i),
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.OpsPerSec, "ops/s")
					b.ReportMetric(float64(res.P99.Nanoseconds()), "p99_ns")
					b.ReportMetric(res.PWBsPerOp, "pwbs/op")
				}
			})
		}
	}
}

// BenchmarkStoreRecovery measures shard-parallel post-crash recovery of a
// loaded store; the serial/parallel ratio and the PWBs and PFences one
// recovery issues are reported as metrics. The image of a quiescent store
// is clean, so its recovery keeps every chain and issues neither.
func BenchmarkStoreRecovery(b *testing.B) {
	const records = 20_000
	for _, shards := range []int{1, 8} {
		b.Run(map[int]string{1: "shards=1", 8: "shards=8"}[shards], func(b *testing.B) {
			st := newBenchStore(b, store.Options{Shards: shards, ExpectedKeys: records * 2})
			workload.Load(st, records, runtime.GOMAXPROCS(0))
			wm := st.Heap().Watermark()
			img := st.Mem().CrashImage(pmem.DropUnfenced, 7)
			cfg := st.Mem().Config()
			opts := st.Opts()
			var recovering time.Duration
			var pwbs, pfences uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mem2 := pmem.NewFromImage(img, cfg)
				b.StartTimer()
				_, rs, err := store.Recover(mem2, wm, opts)
				if err != nil {
					b.Fatal(err)
				}
				recovering += rs.Elapsed
				s := mem2.TotalStats()
				pwbs, pfences = pwbs+s.PWBs, pfences+s.PFences
				var serial time.Duration
				for _, d := range rs.Shards {
					serial += d
				}
				if rs.Elapsed > 0 {
					b.ReportMetric(float64(serial)/float64(rs.Elapsed), "x_parallel")
				}
				b.ReportMetric(float64(rs.Keys), "keys")
			}
			b.ReportMetric(float64(records)*float64(b.N)/recovering.Seconds(), "keys/s")
			b.ReportMetric(float64(pwbs)/float64(b.N), "pwbs/recovery")
			b.ReportMetric(float64(pfences)/float64(b.N), "pfences/recovery")
		})
	}
}

// BenchmarkArenaAlloc measures the persistent allocator's hot paths: an
// alloc/free pair served by the arena's own free list, and the bump path
// of several arenas at once over an empty depot — a shard-parallel
// recovery's allocation pattern, where every Alloc asks the central depot
// first and must not serialise on its mutex to hear "nothing".
func BenchmarkArenaAlloc(b *testing.B) {
	b.Run("recycle", func(b *testing.B) {
		ar := pheap.New(pmem.New(pmem.DefaultConfig(1 << 24))).NewArena()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := ar.Alloc(4)
			ar.Free(p, 4)
		}
	})
	b.Run("bump-empty-depot", func(b *testing.B) {
		// Memory must not scale with b.N, and the bump path cannot give
		// words back: an arena lives for 1<<14 blocks, and once the shared
		// heap is half used the next arena starts a fresh heap over the
		// same words (nothing is ever written to a block).
		m := pmem.New(pmem.DefaultConfig(1 << 22))
		var heap atomic.Pointer[pheap.Heap]
		heap.Store(pheap.New(m))
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for {
				h := heap.Load()
				if h.Watermark() > 1<<21 {
					heap.CompareAndSwap(h, pheap.New(m))
					continue
				}
				ar := h.NewArena()
				for i := 0; i < 1<<14; i++ {
					if !pb.Next() {
						return
					}
					ar.Alloc(4)
				}
			}
		})
	})
}
