// Package bench is the benchmark orchestration subsystem: it runs
// declarative matrices of policy × data structure × workload (reusing
// the core policy registry, the harness's figure specs, the YCSB
// workload mixes and the FliT-Store service), folds warmup + repeated
// runs into summary statistics, and emits one versioned machine-readable
// schema (BenchReport) that every emitter in the repo shares —
// cmd/flitbench (-json / -matrix) and the Go-benchmark adapter in
// bench_test.go. `Compare` diffs two reports cell by cell and
// is the engine of the CI perf-regression gate (see EXPERIMENTS.md).
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

// SchemaVersion stamps every report. Bump it when a field changes
// meaning. Readers accept any version in [MinSchemaVersion,
// SchemaVersion], so a v2 candidate can still be gated against a v1
// baseline (whose cells simply lack the newer fields).
//
// v2 added per-cell wall-clock ns/op and allocs/op.
const SchemaVersion = 2

// MinSchemaVersion is the oldest report version readers still accept.
const MinSchemaVersion = 1

// Report is the versioned machine-readable benchmark record — the unit
// of the repo's BENCH_*.json perf trajectory. Field names are stable
// identifiers; additions are backwards-compatible, renames are not.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	Tool          string `json:"tool"` // "flitbench" (figure tables) | "bench-matrix" (Matrix.Run)
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
// report and is the join key of Compare; keep IDs deterministic
// functions of the configuration, never of the measurement.
type Cell struct {
	ID   string `json:"id"`
	Unit string `json:"unit"`
	// Value summarizes the repeated measurements of the cell's headline
	// quantity (throughput for */throughput cells, flush rate for
	// */pwbs_per_op cells, …).
	Value stats.Summary `json:"value"`
	// LowerIsBetter flips Compare's regression direction (latency and
	// flush-count cells regress upward).
	LowerIsBetter bool `json:"lower_is_better,omitempty"`

	// Optional raw counts and tail latencies, populated by runners that
	// track them (matrix store cells).
	Ops     uint64 `json:"ops,omitempty"`
	PWBs    uint64 `json:"pwbs,omitempty"`
	PFences uint64 `json:"pfences,omitempty"`
	P50Ns   int64  `json:"p50_ns,omitempty"`
	P95Ns   int64  `json:"p95_ns,omitempty"`
	P99Ns   int64  `json:"p99_ns,omitempty"`

	// Schema v2: wall-clock thread-nanoseconds per op and Go heap
	// allocations per op over the measured window (mean across repeats)
	// — the runner-overhead trajectory the simulated throughput numbers
	// can't see. Absent (zero) in v1 reports.
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
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

// Validate checks the report is schema-valid: current version, a tool
// name, and cells with unique non-empty IDs, units, at least one
// observation, and finite numbers.
func (r *Report) Validate() error {
	if r.SchemaVersion < MinSchemaVersion || r.SchemaVersion > SchemaVersion {
		return fmt.Errorf("bench: schema version %d outside supported [%d,%d]",
			r.SchemaVersion, MinSchemaVersion, SchemaVersion)
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

// ReadFile loads and validates a report.
func ReadFile(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
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
