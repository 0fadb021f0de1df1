package workload

import (
	"sync/atomic"
	"testing"
	"time"

	"flit/internal/core"
	"flit/internal/metrics"
	"flit/internal/store"
)

func TestMixByName(t *testing.T) {
	for _, m := range Mixes {
		got, err := MixByName(m.Name)
		if err != nil || got.Name != m.Name {
			t.Fatalf("MixByName(%q) = %v, %v", m.Name, got, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("mix %q does not validate: %v", m.Name, err)
		}
	}
	if _, err := MixByName("z"); err == nil {
		t.Fatal("MixByName accepted an unknown mix")
	}
}

func newGen(t *testing.T, mixName, dist string, records uint64) (*Generator, *atomic.Uint64) {
	t.Helper()
	mix, err := MixByName(mixName)
	if err != nil {
		t.Fatal(err)
	}
	var limit atomic.Uint64
	limit.Store(records)
	g, err := NewGenerator(mix, dist, 0, records, &limit, 8, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	return g, &limit
}

func TestGeneratorProportions(t *testing.T) {
	g, _ := newGen(t, "a", DistUniform, 1000)
	var reads, updates int
	for i := 0; i < 20_000; i++ {
		switch g.Next().Kind {
		case Read:
			reads++
		case Update:
			updates++
		default:
			t.Fatal("mix a generated a kind outside read/update")
		}
	}
	if reads < 9000 || reads > 11000 {
		t.Fatalf("mix a: %d reads of 20000, want ~10000", reads)
	}
	_ = updates
}

func TestInsertsGrowTheKeyspace(t *testing.T) {
	g, limit := newGen(t, "d", DistLatest, 100)
	inserted := 0
	for i := 0; i < 5000; i++ {
		op := g.Next()
		if op.Kind == Insert {
			if op.Key != 100+uint64(inserted) {
				t.Fatalf("insert %d claimed key %d, want %d", inserted, op.Key, 100+inserted)
			}
			inserted++
		} else if op.Key >= limit.Load() {
			t.Fatalf("read key %d beyond keyspace %d", op.Key, limit.Load())
		}
	}
	if inserted == 0 || limit.Load() != 100+uint64(inserted) {
		t.Fatalf("inserted %d, limit %d", inserted, limit.Load())
	}
}

func TestZipfianSkew(t *testing.T) {
	g, _ := newGen(t, "c", DistZipfian, 10_000)
	counts := map[uint64]int{}
	const n = 50_000
	for i := 0; i < n; i++ {
		counts[g.Next().Key]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// A zipfian head is orders of magnitude hotter than uniform's n/keys=5.
	if max < 50 {
		t.Fatalf("hottest key drawn %d times of %d; no zipfian skew", max, n)
	}
	if len(counts) < 100 {
		t.Fatalf("only %d distinct keys drawn; scrambling broken?", len(counts))
	}
}

func TestLatestFavorsRecentKeys(t *testing.T) {
	g, _ := newGen(t, "c", DistLatest, 10_000)
	high := 0
	const n = 10_000
	for i := 0; i < n; i++ {
		if g.Next().Key >= 9000 {
			high++
		}
	}
	if high < n/2 {
		t.Fatalf("latest distribution drew the top decile only %d/%d times", high, n)
	}
}

// TestHistQuantiles: the run's latency distribution — the workers'
// histograms merged — reports quantiles within the bucket error, and a
// second worker's samples extend its count and max.
func TestHistQuantiles(t *testing.T) {
	h := metrics.NewHist()
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	all := mergeLatency([]*metrics.Hist{h})
	check := func(q float64, want time.Duration) {
		t.Helper()
		got := time.Duration(all.Quantile(q))
		lo, hi := want*9/10, want*11/10
		if got < lo || got > hi {
			t.Fatalf("Quantile(%g) = %v, want within 10%% of %v", q, got, want)
		}
	}
	check(0.50, 500*time.Microsecond)
	check(0.95, 950*time.Microsecond)
	check(0.99, 990*time.Microsecond)
	if all.MaxNs != int64(time.Millisecond) {
		t.Fatalf("Max = %v, want 1ms", time.Duration(all.MaxNs))
	}

	o := metrics.NewHist()
	o.Record(5 * time.Millisecond)
	all = mergeLatency([]*metrics.Hist{h, o})
	if all.Count != 1001 || all.MaxNs != int64(5*time.Millisecond) {
		t.Fatalf("after merge: count %d max %v", all.Count, time.Duration(all.MaxNs))
	}
	if all.Quantile(1) != int64(5*time.Millisecond) {
		t.Fatalf("Quantile(1) = %v, want max", time.Duration(all.Quantile(1)))
	}
}

// TestLatencyGeometryFixedVector pins Result's percentiles across the
// move from the runner's own histogram to metrics.Hist: the constants
// are what the deleted workload.Hist reported for this sample set, split
// over two workers, so P50/P95/P99/min/max of a fixed run did not move.
func TestLatencyGeometryFixedVector(t *testing.T) {
	hists := []*metrics.Hist{metrics.NewHist(), metrics.NewHist()}
	for i := int64(0); i < 1000; i++ {
		hists[i%2].RecordNs(((i*7919+13)%1000)<<(i%14) + i)
	}
	all := mergeLatency(hists)
	got := [...]int64{int64(all.Count), all.MinNs, all.Quantile(0.50), all.Quantile(0.95), all.Quantile(0.99), all.MaxNs}
	want := [...]int64{1000, 13, 31232, 3604480, 7208960, 8127205}
	if got != want {
		t.Fatalf("count/min/p50/p95/p99/max = %v, want %v", got, want)
	}
}

func newTestStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.New(store.Options{
		Shards: 4, ExpectedKeys: 1 << 12, Policy: core.PolicyHT, HTBytes: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestLoadPopulates(t *testing.T) {
	st := newTestStore(t)
	elapsed, ops := Load(st, 1000, 4)
	if elapsed <= 0 || ops <= 0 {
		t.Fatalf("Load reported elapsed=%v ops/s=%g", elapsed, ops)
	}
	if got := len(st.Snapshot()); got != 1000 {
		t.Fatalf("loaded %d keys, want 1000", got)
	}
}

// driveSessions runs sp's closed loop over st, one session of the given
// mode per worker.
func driveSessions(st *store.Store, mode store.SessionMode, sp Spec) (Measured, error) {
	return Drive(sp, func(w *Worker) error {
		sess := store.Open[[]byte](st, mode)
		defer sess.Close()
		return w.Closed(SessExec{sess})
	})
}

func TestRunSmoke(t *testing.T) {
	st := newTestStore(t)
	Load(st, 500, 2)
	for _, mixName := range []string{"a", "d", "e", "f"} {
		before := st.Mem().TotalStats().PWBs
		res, err := driveSessions(st, store.Direct, Spec{
			Mix: mixName, Dist: DistZipfian, Workers: 2,
			Duration: 25 * time.Millisecond, Records: 500, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops == 0 || res.OpsPerSec <= 0 {
			t.Fatalf("mix %s: no throughput: %+v", mixName, res)
		}
		if res.P50 <= 0 || res.P99 < res.P95 || res.P95 < res.P50 {
			t.Fatalf("mix %s: implausible percentiles p50=%v p95=%v p99=%v", mixName, res.P50, res.P95, res.P99)
		}
		if st.Mem().TotalStats().PWBs == before {
			t.Fatalf("mix %s: flit-ht workload issued no PWBs", mixName)
		}
		switch mixName {
		case "a":
			if res.Updates == 0 || res.Inserts != 0 {
				t.Fatalf("mix a: updates=%d inserts=%d", res.Updates, res.Inserts)
			}
		case "d":
			if res.Inserts == 0 {
				t.Fatal("mix d generated no inserts")
			}
		case "e":
			if res.Scans == 0 {
				t.Fatal("mix e generated no scans")
			}
		case "f":
			if res.RMWs == 0 {
				t.Fatal("mix f generated no read-modify-writes")
			}
		}
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	st := newTestStore(t)
	if _, err := driveSessions(st, store.Direct, Spec{Mix: "z", Records: 10, Duration: time.Millisecond}); err == nil {
		t.Fatal("Drive accepted unknown mix")
	}
	if _, err := driveSessions(st, store.Direct, Spec{Mix: "a", Duration: time.Millisecond}); err == nil {
		t.Fatal("Drive accepted zero records")
	}
	if _, err := driveSessions(st, store.Direct, Spec{Mix: "a", Records: 10, Dist: "pareto", Duration: time.Millisecond}); err == nil {
		t.Fatal("Drive accepted unknown distribution")
	}
}

// TestMixGIsChurnyAdds: mix G is Add-dominated, its deltas are strictly
// ±1 and roughly self-cancelling, and Add draws respect the keyspace.
func TestMixGIsChurnyAdds(t *testing.T) {
	g, limit := newGen(t, "g", DistUniform, 100)
	adds, reads, plus, minus := 0, 0, 0, 0
	const n = 20_000
	for i := 0; i < n; i++ {
		op := g.Next()
		switch op.Kind {
		case Add:
			adds++
			switch op.Delta {
			case 1:
				plus++
			case ^uint64(0):
				minus++
			default:
				t.Fatalf("Add delta %#x, want ±1", op.Delta)
			}
			if op.Key >= limit.Load() {
				t.Fatalf("Add key %d beyond keyspace %d", op.Key, limit.Load())
			}
		case Read:
			reads++
		default:
			t.Fatalf("mix g generated %v", op.Kind)
		}
	}
	if adds < n*90/100 {
		t.Fatalf("mix g: %d adds of %d, want ≥90%%", adds, n)
	}
	if plus < adds*2/5 || minus < adds*2/5 {
		t.Fatalf("deltas not self-cancelling: +1 ×%d, -1 ×%d", plus, minus)
	}
	_ = reads
}

// TestHotKeysKnob: hotKeys confines every non-insert draw to [0,hotKeys)
// — down to a single hot key — while hotKeys=0 keeps draws spread over
// many distinct keys.
func TestHotKeysKnob(t *testing.T) {
	mix, _ := MixByName("g")
	var limit atomic.Uint64
	limit.Store(1000)
	for _, hot := range []uint64{1, 4} {
		g, err := NewGenerator(mix, DistZipfian, 0, 1000, &limit, 0, hot, 9)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		for i := 0; i < 5000; i++ {
			op := g.Next()
			if op.Key >= hot {
				t.Fatalf("hotKeys=%d: drew key %d", hot, op.Key)
			}
			seen[op.Key] = true
		}
		if uint64(len(seen)) != hot {
			t.Fatalf("hotKeys=%d: drew %d distinct keys, want %d", hot, len(seen), hot)
		}
	}
	g, err := NewGenerator(mix, DistUniform, 0, 1000, &limit, 0, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		seen[g.Next().Key] = true
	}
	if len(seen) < 100 {
		t.Fatalf("hotKeys=0 drew only %d distinct keys", len(seen))
	}
}

// TestRunWindowedModes drives windowed sessions (Depth > 1) in every
// session mode, including mix G under the Combined net-delta path.
func TestRunWindowedModes(t *testing.T) {
	for _, mode := range store.SessionModes {
		for _, mixName := range []string{"a", "f", "g"} {
			st := newTestStore(t)
			Load(st, 300, 2)
			res, err := driveSessions(st, mode, Spec{
				Mix: mixName, Dist: DistUniform, Workers: 2,
				Duration: 20 * time.Millisecond, Records: 300, Seed: 5,
				Depth: 8,
			})
			if err != nil {
				t.Fatalf("%v/%s: %v", mode, mixName, err)
			}
			if res.Ops == 0 || res.OpsPerSec <= 0 {
				t.Fatalf("%v/%s: no throughput: %+v", mode, mixName, res)
			}
			if mixName == "g" && res.Adds == 0 {
				t.Fatalf("%v/g: no adds recorded", mode)
			}
		}
	}
}
