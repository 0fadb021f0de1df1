package workload

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flit/internal/metrics"
)

// TestZipfWidensWithKeyspace: under insert-heavy growth the zipfian
// sampler must follow the high-water mark. The seed state froze the
// zipf at the initial keyspace, so scramble(z) % n could only ever
// reach `records` distinct keys no matter how far the limit grew.
func TestZipfWidensWithKeyspace(t *testing.T) {
	const records = 4
	var limit atomic.Uint64
	limit.Store(records)
	g, err := NewGenerator(Mix{Name: "reads", Read: 100}, DistZipfian, 0, records, &limit, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: before growth, at most `records` distinct keys are
	// reachable (the zipf window is [0, records-1]).
	before := make(map[uint64]bool)
	for i := 0; i < 4096; i++ {
		op := g.Next()
		if op.Key >= records {
			t.Fatalf("pre-growth key %d outside [0,%d)", op.Key, records)
		}
		before[op.Key] = true
	}
	if len(before) > records {
		t.Fatalf("pre-growth reached %d distinct keys from a %d-key window", len(before), records)
	}

	// Simulate an insert-heavy phase growing the keyspace 1024x.
	limit.Store(records * 1024)
	after := make(map[uint64]bool)
	for i := 0; i < 1<<15; i++ {
		after[g.Next().Key] = true
	}
	// With the frozen zipf, |after| is capped at `records` (4). The
	// widened sampler must reach far beyond the original window.
	if len(after) <= records {
		t.Fatalf("post-growth distinct keys = %d: zipf window still frozen at the initial keyspace", len(after))
	}
	if len(after) < 100 {
		t.Fatalf("post-growth distinct keys = %d, want a broad spread over the grown keyspace", len(after))
	}
}

// TestLatestWidensWithKeyspace: the latest distribution's recency
// window follows growth too — new hot keys must be reachable.
func TestLatestWidensWithKeyspace(t *testing.T) {
	const records = 8
	var limit atomic.Uint64
	limit.Store(records)
	g, err := NewGenerator(Mix{Name: "reads", Read: 100}, DistLatest, 0, records, &limit, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	limit.Store(records * 512)
	sawRecent := false
	var oldest, draws int
	for i := 0; i < 1<<14; i++ {
		k := g.Next().Key
		draws++
		if k >= records*256 {
			sawRecent = true
		}
		if k == 0 {
			oldest++
		}
	}
	if !sawRecent {
		t.Fatal("latest distribution never reached the grown keyspace's recent keys")
	}
	// Regression: the widened sampler must not clamp its tail onto the
	// oldest key (key 0 drew ~3.5% of picks under the clamping bug; its
	// fair share is ~0.02%, and the wrapped tail stays well under 1%).
	if frac := float64(oldest) / float64(draws); frac > 0.01 {
		t.Fatalf("key 0 drew %.2f%% of latest picks: widening is clamping onto the oldest key", 100*frac)
	}
}

// TestMixValidation: mixes that do not sum to 100 are rejected at
// construction instead of silently misclassifying the remainder as
// Scan (under-100) or starving trailing kinds (over-100).
func TestMixValidation(t *testing.T) {
	var limit atomic.Uint64
	limit.Store(16)
	for _, tc := range []struct {
		name string
		mix  Mix
		ok   bool
		want string // substring the rejection must carry
	}{
		{"exact-100", Mix{Name: "ok", Read: 50, Update: 50}, true, ""},
		{"all-scan", Mix{Name: "scan", Scan: 100}, true, ""},
		{"under-100", Mix{Name: "under", Read: 50, Update: 40}, false, "sums to 90"},
		{"over-100", Mix{Name: "over", Read: 60, Update: 50}, false, "sums to 110"},
		{"empty", Mix{Name: "empty"}, false, "sums to 0"},
		{"negative", Mix{Name: "neg", Read: 150, Update: -50}, false, "negative"},
	} {
		_, err := NewGenerator(tc.mix, DistUniform, 0, 16, &limit, 0, 0, 1)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: invalid mix accepted", tc.name)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %q does not explain the rejection (want %q)", tc.name, err, tc.want)
			}
		}
	}
	// The built-in YCSB mixes must all be valid.
	for _, m := range Mixes {
		if err := m.Validate(); err != nil {
			t.Errorf("built-in mix %q invalid: %v", m.Name, err)
		}
	}
}

// TestQuantileSmallN pins the small-n clamps: with bucket-midpoint
// representatives, low quantiles on a handful of samples could report
// values above every observation but the max (or below the min). Every
// quantile of a run's latency distribution must land inside [min, max].
func TestQuantileSmallN(t *testing.T) {
	qs := []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
	cases := [][]int64{
		{1000},
		{900, 1100},
		{100, 5000, 5001},
		{70, 900, 901, 40000},
	}
	for _, obs := range cases {
		h := metrics.NewHist()
		min, max := obs[0], obs[0]
		for _, ns := range obs {
			h.RecordNs(ns)
			if ns < min {
				min = ns
			}
			if ns > max {
				max = ns
			}
		}
		all := mergeLatency([]*metrics.Hist{h})
		if all.MinNs != min || all.MaxNs != max {
			t.Fatalf("n=%d: Min/Max = %d/%d, want %d/%d", len(obs), all.MinNs, all.MaxNs, min, max)
		}
		for _, q := range qs {
			if got := all.Quantile(q); got < min || got > max {
				t.Errorf("n=%d q=%v: quantile %d outside recorded range [%d, %d]", len(obs), q, got, min, max)
			}
		}
		// A single observation must be reported exactly at any quantile.
		if len(obs) == 1 && all.Quantile(0.5) != obs[0] {
			t.Errorf("n=1: Quantile(0.5) = %d, want %d", all.Quantile(0.5), obs[0])
		}
	}
	// Merging workers must propagate the min clamp too — whichever
	// worker holds the smaller floor.
	a, b := metrics.NewHist(), metrics.NewHist()
	a.Record(10 * time.Microsecond)
	b.Record(90 * time.Microsecond)
	for _, hists := range [][]*metrics.Hist{{a, b}, {b, a}} {
		all := mergeLatency(hists)
		if all.MinNs != 10_000 || all.MaxNs != 90_000 {
			t.Fatalf("merged Min/Max = %d/%d", all.MinNs, all.MaxNs)
		}
		if q := all.Quantile(0); q < all.MinNs || q > all.MaxNs {
			t.Fatalf("merged Quantile(0) = %d outside [%d, %d]", q, all.MinNs, all.MaxNs)
		}
	}
}

// TestEmptyHistQuantile: a run whose workers recorded nothing reports
// zero statistics, not the empty histogram's +inf min sentinel — alone
// or merged next to a worker that did record.
func TestEmptyHistQuantile(t *testing.T) {
	all := mergeLatency([]*metrics.Hist{metrics.NewHist()})
	if all.Quantile(0.5) != 0 || all.MinNs != 0 || all.MaxNs != 0 {
		t.Fatalf("empty distribution reports non-zero statistics: %+v", all)
	}
	h := metrics.NewHist()
	h.RecordNs(700)
	for _, hists := range [][]*metrics.Hist{{metrics.NewHist(), h}, {h, metrics.NewHist()}} {
		if all := mergeLatency(hists); all.Count != 1 || all.MinNs != 700 || all.MaxNs != 700 {
			t.Fatalf("idle worker disturbed the merge: count %d min %d max %d", all.Count, all.MinNs, all.MaxNs)
		}
	}
}
