// Package bench is the repo's one experiment runner. A Matrix declares
// cells — structure-level points (SetCell: policy × data structure ×
// durability mode × workload), YCSB mixes against the FliT-Store
// embedded, behind the group-commit server, through the flat combiners
// and under admission control — and Run measures each through one
// schedule (discarded warm-up, repeated windows folded by
// internal/bench/stats) into one versioned machine-readable Report. The
// figures and ablations of the paper's §6 are presets of the same
// runner (FigurePreset): set cells plus Views that render the paper's
// tables from the Report. cmd/flitbench (-fig / -matrix / -json) and the
// Go-benchmark adapter in bench_test.go are its emitters.
//
// A Report is a record of one run on one machine, not a gate:
// performance claims are rows of `benchmark/run.sh compare` (see
// benchmark/README.md).
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"flit/internal/bench/stats"
)

// SchemaVersion stamps every report; readers accept exactly this
// version. Bump it when a field changes meaning.
//
// v3 dropped v2's per-cell wall-clock ns/op and allocs/op and the
// figure-table cell IDs: figure reports carry the matrix's set/… cells.
const SchemaVersion = 3

// Report is the versioned machine-readable benchmark record. Field names
// are stable identifiers; additions are backwards-compatible, renames
// are not.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	Tool          string `json:"tool"` // "bench-matrix" (Matrix.Run)
	GitRev        string `json:"git_rev,omitempty"`
	GoVersion     string `json:"go_version"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	// Config records the knobs that shaped the run (threads, duration,
	// repeats, seed, matrix/figure ids) as strings, for humans and for
	// "are these comparable?" checks.
	Config map[string]string `json:"config,omitempty"`
	Cells  []Cell            `json:"cells"`
}

// Cell is one measured point of the matrix. ID is unique within a
// report and is what views and readers join on; keep IDs deterministic
// functions of the configuration, never of the measurement.
type Cell struct {
	ID   string `json:"id"`
	Unit string `json:"unit"`
	// Value summarizes the repeated measurements of the cell's headline
	// quantity (throughput for */throughput cells, flush rate for
	// */pwbs_per_op cells, …).
	Value stats.Summary `json:"value"`
	// LowerIsBetter marks cells that regress upward (latency and flush
	// counts).
	LowerIsBetter bool `json:"lower_is_better,omitempty"`

	// Optional raw counts and tail latencies, populated by runners that
	// track them (matrix store cells).
	Ops     uint64 `json:"ops,omitempty"`
	PWBs    uint64 `json:"pwbs,omitempty"`
	PFences uint64 `json:"pfences,omitempty"`
	P50Ns   int64  `json:"p50_ns,omitempty"`
	P95Ns   int64  `json:"p95_ns,omitempty"`
	P99Ns   int64  `json:"p99_ns,omitempty"`

	// PFencesElided counts the dependency fences the policy found empty
	// and did not issue; PFences + PFencesElided is the number of fences
	// Algorithm 4 asks for.
	PFencesElided uint64 `json:"pfences_elided,omitempty"`
}

// NewReport stamps a report with the environment: git revision, Go
// version, GOMAXPROCS.
func NewReport(tool string, config map[string]string) *Report {
	return &Report{
		SchemaVersion: SchemaVersion,
		Tool:          tool,
		GitRev:        gitRev(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Config:        config,
	}
}

// gitRev best-efforts the current revision: CI's GITHUB_SHA, an explicit
// FLIT_GIT_REV override, then `git rev-parse`. Empty when unknowable —
// the report is still valid.
func gitRev() string {
	for _, env := range []string{"FLIT_GIT_REV", "GITHUB_SHA"} {
		if v := os.Getenv(env); v != "" {
			return v
		}
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Add appends a cell.
func (r *Report) Add(c Cell) { r.Cells = append(r.Cells, c) }

// Find returns the cell with the given ID, or nil.
func (r *Report) Find(id string) *Cell {
	for i := range r.Cells {
		if r.Cells[i].ID == id {
			return &r.Cells[i]
		}
	}
	return nil
}

// Mean returns the mean of the cell with the given ID, or 0 if the
// report has none.
func (r *Report) Mean(id string) float64 {
	if c := r.Find(id); c != nil {
		return c.Value.Mean
	}
	return 0
}

// Validate checks the report is schema-valid: current version, a tool
// name, and cells with unique non-empty IDs, units, at least one
// observation, and finite numbers.
func (r *Report) Validate() error {
	if r.SchemaVersion != SchemaVersion {
		return fmt.Errorf("bench: schema version %d, want %d", r.SchemaVersion, SchemaVersion)
	}
	if r.Tool == "" {
		return fmt.Errorf("bench: report has no tool")
	}
	if len(r.Cells) == 0 {
		return fmt.Errorf("bench: report has no cells")
	}
	seen := make(map[string]bool, len(r.Cells))
	for i, c := range r.Cells {
		if c.ID == "" {
			return fmt.Errorf("bench: cell %d has empty id", i)
		}
		if seen[c.ID] {
			return fmt.Errorf("bench: duplicate cell id %q", c.ID)
		}
		seen[c.ID] = true
		if c.Unit == "" {
			return fmt.Errorf("bench: cell %q has no unit", c.ID)
		}
		if c.Value.N < 1 {
			return fmt.Errorf("bench: cell %q has no observations", c.ID)
		}
		for _, v := range []float64{c.Value.Mean, c.Value.Stddev, c.Value.Min, c.Value.Max} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("bench: cell %q has non-finite value", c.ID)
			}
		}
	}
	return nil
}

// WriteFile validates and writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	if err := r.Validate(); err != nil {
		return err
	}
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// MetricReporter is the slice of *testing.B the Go-bench adapter needs;
// it keeps the testing package out of this package's import graph.
type MetricReporter interface {
	ReportMetric(n float64, unit string)
}

// ReportMetrics emits every cell of the report through a Go benchmark's
// custom-metric channel, so `go test -bench` output carries the same
// numbers as the JSON schema (the thin adapter keeping bench_test.go
// Go-bench compatible). Metric names are "<cell-id>:<unit>" with spaces
// squeezed out, as Go bench metric units must be space-free.
func ReportMetrics(b MetricReporter, r *Report) {
	for _, c := range r.Cells {
		unit := strings.ReplaceAll(c.ID+":"+c.Unit, " ", "_")
		b.ReportMetric(c.Value.Mean, unit)
	}
}

// SlugID builds a deterministic cell ID from path components: lowercase,
// spaces and commas collapsed to single dashes, slash-joined.
func SlugID(parts ...string) string {
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.ToLower(strings.TrimSpace(p))
		p = strings.Map(func(r rune) rune {
			switch r {
			case ' ', ',', '\t', '%', '\\':
				return '-'
			}
			return r
		}, p)
		for strings.Contains(p, "--") {
			p = strings.ReplaceAll(p, "--", "-")
		}
		p = strings.Trim(p, "-")
		if p != "" {
			out = append(out, p)
		}
	}
	return strings.Join(out, "/")
}
