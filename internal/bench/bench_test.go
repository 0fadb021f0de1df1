package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flit/internal/bench/stats"
)

// sample builds a small valid report.
func sample() *Report {
	r := NewReport("flitbench", map[string]string{"matrix": "test"})
	r.Add(Cell{ID: "set/bst/automatic/flit-ht/u50/throughput", Unit: "ops/s",
		Value: stats.Summarize([]float64{1e6, 1.2e6}), Ops: 1000, PWBs: 500})
	r.Add(Cell{ID: "set/bst/automatic/flit-ht/u50/pwbs_per_op", Unit: "pwbs/op",
		Value: stats.Summarize([]float64{0.5}), LowerIsBetter: true})
	r.Add(Cell{ID: "set/list/automatic/flit-ht/u5/throughput", Unit: "ops/s",
		Value: stats.Summarize([]float64{2e5}), PFences: 12345})
	return r
}

func TestReportRoundTrip(t *testing.T) {
	r := sample()
	path := filepath.Join(t.TempDir(), "r.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := new(Report)
	if err := json.Unmarshal(raw, got); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", r, got)
	}
	if got.SchemaVersion != SchemaVersion || got.GoVersion == "" || got.GOMAXPROCS < 1 {
		t.Fatalf("environment fields lost: %+v", got)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Report)
		want   string
	}{
		{"ok", func(r *Report) {}, ""},
		{"version", func(r *Report) { r.SchemaVersion = SchemaVersion - 1 }, "schema version"},
		{"no tool", func(r *Report) { r.Tool = "" }, "no tool"},
		{"no cells", func(r *Report) { r.Cells = nil }, "no cells"},
		{"empty id", func(r *Report) { r.Cells[0].ID = "" }, "empty id"},
		{"dup id", func(r *Report) { r.Cells[1].ID = r.Cells[0].ID }, "duplicate"},
		{"no unit", func(r *Report) { r.Cells[2].Unit = "" }, "no unit"},
		{"no obs", func(r *Report) { r.Cells[0].Value = stats.Summary{} }, "no observations"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := sample()
			tc.mutate(r)
			err := r.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestFindAndAdd(t *testing.T) {
	r := sample()
	if c := r.Find("set/list/automatic/flit-ht/u5/throughput"); c == nil || c.PFences != 12345 {
		t.Fatalf("Find returned %+v", c)
	}
	if r.Find("nope") != nil {
		t.Fatal("Find of unknown id should be nil")
	}
}

func TestSlugID(t *testing.T) {
	got := SlugID("fig-7", "Figure 7: bst, 10000 keys", "flit-HT(1MB)", "5%")
	if strings.ContainsAny(got, " ,%") || strings.Contains(got, "--") {
		t.Fatalf("slug not clean: %q", got)
	}
	if got != SlugID("fig-7", "Figure 7: bst, 10000 keys", "flit-HT(1MB)", "5%") {
		t.Fatal("slug not deterministic")
	}
	if SlugID("a", "", "b") != "a/b" {
		t.Fatalf("empty parts should drop: %q", SlugID("a", "", "b"))
	}
}

type metricRecorder struct{ got map[string]float64 }

func (m *metricRecorder) ReportMetric(n float64, unit string) { m.got[unit] = n }

func TestReportMetricsAdapter(t *testing.T) {
	r := sample()
	rec := &metricRecorder{got: map[string]float64{}}
	ReportMetrics(rec, r)
	if len(rec.got) != len(r.Cells) {
		t.Fatalf("adapter emitted %d metrics, want %d", len(rec.got), len(r.Cells))
	}
	key := "set/bst/automatic/flit-ht/u50/throughput:ops/s"
	if v, ok := rec.got[key]; !ok || v != r.Cells[0].Value.Mean {
		t.Fatalf("metric %q = %v, want %v (have %v)", key, v, r.Cells[0].Value.Mean, rec.got)
	}
	for unit := range rec.got {
		if strings.Contains(unit, " ") {
			t.Fatalf("metric unit %q contains a space (Go bench forbids it)", unit)
		}
	}
}
