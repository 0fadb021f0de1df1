package main

import (
	"fmt"
	"io"
	"slices"
)

// noiseTable runs each workload n times, seeds seed..seed+n-1, and prints for
// every end-to-end metric the minimum, median and maximum of the n single
// runs, their range and their inter-quartile distance as shares of the
// median. Each timing is shown under the gated estimator (the quiet end: the
// 3 fastest segments or trials of the run) and under the plain median, so the
// table says which one this box supports. A bound has to be at
// least the range on the gated row.
func noiseTable(w io.Writer, run []spec, n int, seed int64, seconds int, tmp string) error {
	fmt.Fprintf(w, "%d runs per workload, --seconds %d\n\n", n, seconds)
	fmt.Fprintln(w, "| workload | metric | estimator | min | median | max | range/median | IQR/median | bound |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	for i := range run {
		sp := &run[i]
		// One row per end-to-end metric, two for a timing: the gated
		// reading and the plain-median one.
		type row struct {
			def       *metricDef
			estimator string
			vals      []float64
		}
		var rows []*row
		for r := 0; r < n; r++ {
			rs, err := runWorkload(sp, fullScale(sp, seconds), seed+int64(r), policy, tmp, nil)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", sp.name, r, err)
			}
			if rs.failed() > 0 {
				return fmt.Errorf("%s run %d: %d failed operations", sp.name, r, rs.failed())
			}
			_, med, _ := rs.opsPerSecond()
			plain := map[string]float64{
				"ops_per_s":  med,
				"lat_p95_ns": rs.perOp(median(rs.segTail)),
				"recover_s":  median(rs.recover),
				"setup_s":    median(rs.setup),
			}
			k := 0
			add := func(def *metricDef, estimator string, v float64) {
				if r == 0 {
					rows = append(rows, &row{def: def, estimator: estimator})
				}
				rows[k].vals = append(rows[k].vals, v)
				k++
			}
			for _, v := range rs.endToEnd() {
				switch alt, timed := plain[v.def.name]; {
				case timed:
					add(v.def, "quiet end", v.v)
					add(v.def, "median", alt)
				case v.def.exact:
					add(v.def, "exact", v.v)
				default:
					add(v.def, "count", v.v)
				}
			}
		}
		for _, r := range rows {
			q := quartiles(r.vals)
			bound := ""
			if r.estimator != "median" {
				bound = fmt.Sprintf("%.1f%%", 100*r.def.bound)
			}
			lo, hi := slices.Min(r.vals), slices.Max(r.vals)
			fmt.Fprintf(w, "| %s | %s | %s | %.6g | %.6g | %.6g | %.2f%% | %.2f%% | %s |\n",
				sp.name, r.def.name, r.estimator, lo, q[1], hi, 100*(hi-lo)/q[1], 100*(q[2]-q[0])/q[1], bound)
		}
	}
	return nil
}
