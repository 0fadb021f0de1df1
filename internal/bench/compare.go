package bench

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

func sortedConfigKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Delta is one cell's old→new movement. Change is the relative change
// of the mean in the cell's "better" direction: positive means the cell
// improved, negative means it degraded (for LowerIsBetter cells a drop
// in the mean is therefore a positive Change).
type Delta struct {
	ID     string
	Unit   string
	Old    float64
	New    float64
	Change float64
	// Regressed marks degradation beyond the comparison threshold;
	// Improved marks movement beyond it in the good direction.
	Regressed bool
	Improved  bool

	// Schema-v2 side metrics (wall-clock ns/op, allocs/op), carried when
	// either report has them. Informational: wall time is host-noisy and
	// allocation counts shift with Go releases, so they annotate the diff
	// without feeding the gate.
	OldNsPerOp     float64
	NewNsPerOp     float64
	OldAllocsPerOp float64
	NewAllocsPerOp float64
}

// HasRuntimeMetrics reports whether either side carried v2 wall-clock /
// allocation metrics.
func (d Delta) HasRuntimeMetrics() bool {
	return d.OldNsPerOp != 0 || d.NewNsPerOp != 0 || d.OldAllocsPerOp != 0 || d.NewAllocsPerOp != 0
}

// CompareResult is a cell-by-cell diff of two reports.
type CompareResult struct {
	// Threshold gates higher-is-better cells (throughput: noisy across
	// hosts); LowerThreshold gates lower-is-better cells (flush rates,
	// latency: near-deterministic, so they can be held much tighter).
	Threshold      float64
	LowerThreshold float64
	Deltas         []Delta
	// MissingInNew lists baseline cells the new report lacks (treated as
	// regressions: a silently dropped cell must not pass the gate).
	// MissingInOld lists new cells with no baseline (informational).
	MissingInNew []string
	MissingInOld []string
	// ConfigDiffs flags config keys present in both reports with
	// different values (threads, duration, …): the numbers may not be
	// structurally comparable. Informational — it does not fail the gate.
	ConfigDiffs  []string
	Regressions  int
	Improvements int
}

// OK reports whether the gate passes: no cell regressed beyond the
// threshold and no baseline cell disappeared.
func (c CompareResult) OK() bool { return c.Regressions == 0 && len(c.MissingInNew) == 0 }

// Compare diffs new against old (the baseline) with one threshold for
// every cell — the relative degradation tolerated, e.g. 0.10 for 10%.
// Any supported schema versions may be mixed (a v2 candidate gates
// against a v1 baseline; v1 cells simply lack the runtime metrics), and
// tools may differ (a bench-matrix report can be gated against a flitbench
// baseline as long as cell IDs match).
func Compare(old, new *Report, threshold float64) (CompareResult, error) {
	return CompareThresholds(old, new, threshold, threshold)
}

// CompareThresholds is Compare with the gate split by direction:
// threshold for higher-is-better cells, lowerThreshold for
// lower-is-better ones.
func CompareThresholds(old, new *Report, threshold, lowerThreshold float64) (CompareResult, error) {
	if err := old.Validate(); err != nil {
		return CompareResult{}, fmt.Errorf("baseline: %w", err)
	}
	if err := new.Validate(); err != nil {
		return CompareResult{}, fmt.Errorf("candidate: %w", err)
	}
	if threshold < 0 || lowerThreshold < 0 {
		return CompareResult{}, fmt.Errorf("bench: negative threshold %v/%v", threshold, lowerThreshold)
	}
	res := CompareResult{Threshold: threshold, LowerThreshold: lowerThreshold}
	for _, k := range sortedConfigKeys(old.Config) {
		if nv, ok := new.Config[k]; ok && nv != old.Config[k] {
			res.ConfigDiffs = append(res.ConfigDiffs,
				fmt.Sprintf("%s: baseline %q vs candidate %q", k, old.Config[k], nv))
		}
	}
	for _, oc := range old.Cells {
		nc := new.Find(oc.ID)
		if nc == nil {
			res.MissingInNew = append(res.MissingInNew, oc.ID)
			continue
		}
		d := Delta{
			ID: oc.ID, Unit: oc.Unit, Old: oc.Value.Mean, New: nc.Value.Mean,
			OldNsPerOp: oc.NsPerOp, NewNsPerOp: nc.NsPerOp,
			OldAllocsPerOp: oc.AllocsPerOp, NewAllocsPerOp: nc.AllocsPerOp,
		}
		switch {
		case d.Old != 0:
			d.Change = (d.New - d.Old) / d.Old
			if oc.LowerIsBetter {
				d.Change = -d.Change
			}
		case oc.LowerIsBetter && d.New > 0:
			// A lower-is-better cell leaving zero is unboundedly worse —
			// e.g. a read path that never flushed starting to flush. Record
			// it as a full regression so any threshold < 100% gates it.
			d.Change = -1
		}
		th := threshold
		if oc.LowerIsBetter {
			th = lowerThreshold
		}
		if d.Change < -th {
			d.Regressed = true
			res.Regressions++
		} else if d.Change > th {
			d.Improved = true
			res.Improvements++
		}
		res.Deltas = append(res.Deltas, d)
	}
	for _, nc := range new.Cells {
		if old.Find(nc.ID) == nil {
			res.MissingInOld = append(res.MissingInOld, nc.ID)
		}
	}
	return res, nil
}

// Format renders the diff for humans: regressions first, then
// improvements, then a one-line verdict. Stable cells are summarized by
// count only.
func (c CompareResult) Format() string {
	var b strings.Builder
	stable := 0
	for _, d := range c.Deltas {
		if d.Regressed {
			fmt.Fprintf(&b, "REGRESSION  %-60s %12.4g -> %-12.4g (%+.1f%%) [%s]\n",
				d.ID, d.Old, d.New, d.Change*100, d.Unit)
		}
	}
	for _, d := range c.Deltas {
		if d.Improved {
			fmt.Fprintf(&b, "improvement %-60s %12.4g -> %-12.4g (%+.1f%%) [%s]\n",
				d.ID, d.Old, d.New, d.Change*100, d.Unit)
		}
	}
	for _, d := range c.Deltas {
		if !d.Regressed && !d.Improved {
			stable++
		}
	}
	// v2 runtime metrics, informational: the wall-clock and allocation
	// trajectory of every cell that carries them.
	for _, d := range c.Deltas {
		if !d.HasRuntimeMetrics() {
			continue
		}
		fmt.Fprintf(&b, "  runtime   %-60s %9.0f -> %-9.0f ns/op   %8.3f -> %-8.3f allocs/op\n",
			d.ID, d.OldNsPerOp, d.NewNsPerOp, d.OldAllocsPerOp, d.NewAllocsPerOp)
	}
	for _, id := range c.MissingInNew {
		fmt.Fprintf(&b, "MISSING     %s (in baseline, absent from candidate)\n", id)
	}
	for _, id := range c.MissingInOld {
		fmt.Fprintf(&b, "new cell    %s (no baseline)\n", id)
	}
	for _, d := range c.ConfigDiffs {
		fmt.Fprintf(&b, "  note: config differs — %s\n", d)
	}
	gate := fmt.Sprintf("±%.0f%%", c.Threshold*100)
	if c.LowerThreshold != c.Threshold {
		gate = fmt.Sprintf("±%.0f%% (±%.0f%% lower-is-better)", c.Threshold*100, c.LowerThreshold*100)
	}
	fmt.Fprintf(&b, "compared %d cells at %s: %d regressed, %d improved, %d stable",
		len(c.Deltas), gate, c.Regressions, c.Improvements, stable)
	if len(c.MissingInNew) > 0 {
		fmt.Fprintf(&b, ", %d missing", len(c.MissingInNew))
	}
	if c.OK() {
		b.WriteString(" — OK\n")
	} else {
		b.WriteString(" — FAIL\n")
	}
	return b.String()
}

// ParseThreshold accepts "10%", "10 %", or a bare ratio like "0.1". A
// bare ratio above 1 is rejected: "-threshold 60" (a forgotten %) would
// otherwise mean 6000% and silently neutralize the gate, since a
// throughput drop can never exceed -100%.
func ParseThreshold(s string) (float64, error) {
	orig := s
	s = strings.TrimSpace(s)
	pct := false
	if strings.HasSuffix(s, "%") {
		pct = true
		s = strings.TrimSpace(strings.TrimSuffix(s, "%"))
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bench: bad threshold %q (want \"10%%\" or \"0.1\")", orig)
	}
	if pct {
		v /= 100
	}
	if v < 0 {
		return 0, fmt.Errorf("bench: negative threshold %q", orig)
	}
	if !pct && v > 1 {
		return 0, fmt.Errorf("bench: threshold %q is a ratio above 1 — did you mean %q?", orig, s+"%")
	}
	return v, nil
}
