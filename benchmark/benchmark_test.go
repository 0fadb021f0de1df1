package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"flit/internal/store"
)

func quickRun(t *testing.T, sp *spec, seed int64, pol string, tr *tracer) *runStats {
	t.Helper()
	rs, err := runWorkload(sp, quickScale(sp), seed, pol, t.TempDir(), tr)
	if err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	return rs
}

// Same seed: the same op stream and the same counts, exactly. Another seed:
// another stream. No failed operation on the tree as it is.
func TestRunsRepeatExactly(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a, b, c := quickRun(t, sp, 1, policy, nil), quickRun(t, sp, 1, policy, nil), quickRun(t, sp, 2, policy, nil)
		if a.failed() != 0 || c.failed() != 0 {
			t.Errorf("%s: %d and %d failed operations", sp.name, a.failed(), c.failed())
		}
		if a.digest != b.digest {
			t.Errorf("%s: same seed, different op streams", sp.name)
		}
		if a.digest == c.digest {
			t.Errorf("%s: different seeds, same op stream", sp.name)
		}
		if a.mem != b.mem || a.vtime != b.vtime || a.watermark1 != b.watermark1 || a.liveKeys != b.liveKeys || a.responses != b.responses {
			t.Errorf("%s: same seed, different counts:\n%+v %d %d %d\n%+v %d %d %d", sp.name,
				a.mem, a.vtime, a.watermark1, a.liveKeys, b.mem, b.vtime, b.watermark1, b.liveKeys)
		}
		sc := quickScale(sp)
		if len(a.segNs) != sc.segments() || len(a.segTail) != sc.segments() || len(a.recover) != sc.rounds*sc.trials || len(a.setup) != sc.rounds*sc.trials+1 {
			t.Errorf("%s: %d segments, %d tails, %d recoveries, %d set-ups for %d rounds of %d segments and %d trials", sp.name,
				len(a.segNs), len(a.segTail), len(a.recover), len(a.setup), sc.rounds, sc.segsPerRound, sc.trials)
		}
		if a.liveKeys != quickScale(sp).records {
			t.Errorf("%s: %d live keys, want the loaded %d", sp.name, a.liveKeys, quickScale(sp).records)
		}
		for _, v := range a.endToEnd() {
			if !(v.v > 0) || math.IsInf(v.v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", sp.name, v.def.name, v.v)
			}
		}
	}
}

// The checks have a tooth: a store that never flushes loses acknowledged
// writes at the crash, and the harness must count them.
func TestPlantedBugIsCaught(t *testing.T) {
	sp, _ := specByName("emb_write")
	rs := quickRun(t, sp, 1, "no-persist", nil)
	if rs.mismatch != 0 {
		t.Errorf("no-persist answered %d operations wrongly before the crash", rs.mismatch)
	}
	if rs.rec.mismatch == 0 {
		t.Error("the crash/recover check passed a store that persists nothing")
	}
}

// sim_cost_per_op reads Memory.MaxVirtualTime, a maximum over threads, as a
// total. runWorkload refuses to report when the two differ; this shows they
// do differ as soon as a second thread works.
func TestModelCostNeedsOneThread(t *testing.T) {
	st, err := store.New(storeOptions(quickScale(&specs[0]), policy))
	if err != nil {
		t.Fatal(err)
	}
	mem := st.Mem()
	mem.ResetStats()
	one := func() {
		s := store.Open[[]byte](st, store.Direct)
		s.Put([]byte("user0000000000000001"), 1)
		s.Close()
	}
	one()
	if got, want := mem.MaxVirtualTime(), modelCost(mem.Config(), mem.TotalStats()); got != want {
		t.Errorf("one thread: max virtual time %d, counted cost %d", got, want)
	}
	a, b := store.Open[[]byte](st, store.Direct), store.Open[[]byte](st, store.Direct)
	a.Put([]byte("user0000000000000002"), 1)
	b.Put([]byte("user0000000000000003"), 1)
	if got, want := mem.MaxVirtualTime(), modelCost(mem.Config(), mem.TotalStats()); got >= want {
		t.Errorf("two threads: max virtual time %d should fall short of the counted cost %d", got, want)
	}
	a.Close()
	b.Close()
}

// The counting transport changes nothing: wrapped and bare runs of the same
// stream return the same responses, and the wrapper did count.
func TestCountingTransportIsTransparent(t *testing.T) {
	for _, name := range []string{"net_d1", "net_d32"} {
		sp, _ := specByName(name)
		bare := quickRun(t, sp, 3, policy, nil)
		tr := newTracer()
		wrapped := quickRun(t, sp, 3, policy, tr)
		if bare.responses != wrapped.responses || bare.mem != wrapped.mem {
			t.Errorf("%s: wrapped run differs from bare run", name)
		}
		if tr.transport.reads.Load() == 0 || tr.transport.writes.Load() == 0 || tr.transport.bytes.Load() == 0 {
			t.Errorf("%s: transport counted nothing: %d reads, %d writes", name, tr.transport.reads.Load(), tr.transport.writes.Load())
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The traced run emits every per-layer metric once, writes the spans, and its
// ladder's self times add up to the top rung.
func TestTracedRun(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		out := filepath.Join(t.TempDir(), "trace.json")
		var buf bytes.Buffer
		rep, err := measureTraced(&buf, sp, quickScale(sp), 1, t.TempDir(), out)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if rep.Failed != 0 {
			t.Errorf("%s: %d failed operations", sp.name, rep.Failed)
		}
		if len(rep.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", sp.name, len(rep.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			m, ok := rep.Metrics[d.name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: per-layer metric %s missing or not a number", sp.name, d.name)
			}
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
			t.Fatalf("%s: span file: %v, %d spans", sp.name, err, len(spans))
		}
		for _, s := range spans {
			if s.End < s.Start || s.Parent >= s.ID {
				t.Fatalf("%s: bad span %+v", sp.name, s)
			}
		}
	}
}

func TestSelfTimesSumToTopRung(t *testing.T) {
	rows := []ladderRow{{cum: 10}, {cum: 25}, {cum: 20}, {cum: 60}}
	self, sum := selfTimes(rows)
	if want := []float64{10, 15, 0, 35}; !slices.Equal(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if sum != 60 {
		t.Errorf("sum %v, want the top rung 60", sum)
	}
}

func TestEstimators(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1
	}
	if got := quietest(xs); got != 2 { // mean of 1..3
		t.Errorf("quietest = %v, want 2", got)
	}
	if got := quietest(xs[:2]); got != 99.5 { // fewer than quietN values: all of them
		t.Errorf("quietest of 2 = %v, want 99.5", got)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := median(xs[:99]); got != 51 {
		t.Errorf("odd median = %v, want 51", got)
	}

	// p95 needs ten samples beyond it: 200 samples just allow it, fewer
	// lower the percentile, more keep p95.
	for _, c := range []struct {
		n, rank int
		pct     float64
	}{{200, 189, 95}, {250, 237, 95.2}, {1000, 949, 95}, {100, 89, 90}, {12, 1, 100 * 2.0 / 12}} {
		rank, pct := tailRank(c.n)
		if rank != c.rank || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("tailRank(%d) = %d, %v; want %d, %v", c.n, rank, pct, c.rank, c.pct)
		}
		if beyond := c.n - 1 - rank; beyond < minBeyond {
			t.Errorf("tailRank(%d) leaves %d samples beyond", c.n, beyond)
		}
	}
	samples := make([]int64, 1000)
	for i := range samples {
		samples[i] = int64(1000 - i)
	}
	if tail, p50 := tailAndMedian(samples); tail != 950 || p50 != 501 {
		t.Errorf("tailAndMedian = %v, %v; want 950, 501", tail, p50)
	}
}

func TestOracle(t *testing.T) {
	o := newOracle(4)
	if !o.apply(opGet, 2, 0, 3, true) || o.apply(opGet, 2, 0, 4, true) || o.apply(opGet, 9, 0, 0, true) {
		t.Error("get against loaded state")
	}
	if !o.apply(opPut, 4, 77, 0, true) || !o.apply(opPut, 1, 78, 0, false) || o.apply(opPut, 5, 79, 0, false) {
		t.Error("put flags")
	}
	if !o.apply(opDelete, 0, 0, 0, true) || !o.apply(opDelete, 0, 0, 0, false) {
		t.Error("delete flags")
	}
	if o.live() != 5 || o.get(0) != 0 || o.get(1) != 78 || o.get(4) != 77 {
		t.Errorf("state: %d live, %v", o.live(), o.vals)
	}
	seen := map[uint64]uint64{}
	o.each(func(idx, want uint64) { seen[idx] = want })
	if want, ok := seen[0]; !ok || want != 0 {
		t.Error("each must visit the deleted index and expect it absent")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got := quartiles([]float64{1, 2}); got != [3]float64{0.75, 1.5, 2.25} {
		t.Errorf("quartiles of two = %v", got)
	}
}

func TestJudge(t *testing.T) {
	rep := func(x float64, n int) []float64 { return slices.Repeat([]float64{x}, n) }
	noisy := func(base float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base * (1 + 0.002*float64(i%5))
		}
		return out
	}
	wide := func(base float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base * (1 + 0.05*float64(i))
		}
		return out
	}
	for _, c := range []struct {
		name   string
		p, c   []float64
		higher bool
		bound  float64
		exact  bool
		want   string
	}{
		{"equal counts", rep(2, 10), rep(2, 10), false, 0.005, true, "same (exact count)"},
		{"fewer flushes", rep(2, 10), rep(1.5, 10), false, 0.005, true, "better (exact count)"},
		{"more flushes", rep(2, 10), rep(2.5, 10), false, 0.005, true, "worse (exact count)"},
		{"a count that wandered", noisy(2), noisy(2.5), false, 0.005, true, "worse"},
		{"faster", noisy(100), noisy(120), true, 0.08, false, "better"},
		{"slower past the bound", noisy(100), noisy(85), true, 0.08, false, "worse"},
		{"slower within the bound", noisy(100), noisy(97), true, 0.08, false, "same"},
		{"too noisy to tell", wide(100), wide(101), true, 0.08, false, "unresolved"},
	} {
		if got := judge(c.p, c.c, c.higher, c.bound, c.exact).verdict; got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json and the code name the same workloads and metrics, with the
// same units, directions and bounds, and every name is well formed.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var f struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(specs) {
		t.Fatalf("%d workloads, want %d", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q does not match the code", i, w.Name, w.Why)
		}
	}
	same := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: %+v does not match %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.bound || w.bound > 0.25)) {
				t.Errorf("%s %s: bound", kind, g.Name)
			}
			if !nameRE.MatchString(g.Name) || seen[g.Name] {
				t.Errorf("%s: name %q malformed or repeated", kind, g.Name)
			}
			seen[g.Name] = true
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd, true)
	same("per_layer", f.PerLayer, perLayer, false)
	if !slices.Equal(f.Paths, []string{"benchmark"}) || f.RunSeconds < 10 || f.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", f.Paths, f.RunSeconds)
	}
}
