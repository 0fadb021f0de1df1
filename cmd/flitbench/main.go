// Command flitbench drives internal/bench, the runner of the FliT
// paper's evaluation section (§6): it regenerates the tables and figures
// on the simulated-NVRAM substrate, and runs the named set-cell matrices.
// Both are views of the same cells — a figure is a preset matrix plus the
// tables rendered from its report.
//
// Usage:
//
//	flitbench -fig 7                          # one figure, text tables
//	flitbench -fig all -duration 500ms -out results.txt
//	flitbench -fig 7 -json r.json             # figure + its report as JSON
//	flitbench -matrix smoke -json r.json      # named matrix run
//	flitbench -list                           # enumerate figure ids
//
// Figures: 5 (flit-HT size tuning), 6 (thread scalability), 7 (structures x
// durability x policy), 8 (update-ratio sweep, normalized), 9 (flushes per
// operation), plus ablations: ablation-inv (clwb invalidation),
// ablation-pack (packed counters), ablation-line (per-cache-line
// counters), ablation-iz (Izraelevitz et al. baseline), ablation-zipf
// (access skew).
//
// Matrices: smoke (a small fixed grid of structures × policies) and full
// (every structure and headline policy). A report records one run on one
// machine; it is not a gate. The store and its network front-end are
// timed by benchmark/, and performance claims are rows of
// `benchmark/run.sh compare` (see benchmark/README.md).
//
// Absolute throughput is simulated-memory throughput; the paper's shapes
// (who wins, by what factor, where crossovers fall) are the reproduction
// target. See EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"flit/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (5,6,7,8,9,ablation-inv,ablation-pack,ablation-line,ablation-iz,ablation-zipf,all)")
	matrix := flag.String("matrix", "", fmt.Sprintf("run a named set-cell matrix instead of figures (%s)", strings.Join(bench.PresetNames(), "|")))
	duration := flag.Duration("duration", 250*time.Millisecond, "measured duration per cell")
	warmup := flag.Duration("warmup", 0, "matrix mode: discarded warm-up window per cell (0 disables; default duration/2)")
	threads := flag.Int("threads", runtime.GOMAXPROCS(0), "worker threads (the paper used 44)")
	small := flag.Bool("small", false, "restrict Figure 8 to small structure sizes")
	invalidate := flag.Bool("invalidate", false, "model the invalidating clwb of Cascade Lake everywhere")
	out := flag.String("out", "", "also append output to this file")
	repeats := flag.Int("repeats", 1, "average each cell over N runs (the paper used 5)")
	vclock := flag.Bool("vclock", false, "virtual-clock cost accounting (no spin loops; pwbs/op cells identical, throughput cells not comparable with spin-mode reports)")
	csv := flag.String("csv", "", "also append CSV-formatted tables to this file")
	jsonOut := flag.String("json", "", "write a machine-readable BenchReport (see internal/bench) to this file")
	listFigs := flag.Bool("list", false, "list available figures and exit")
	flag.Parse()

	if *listFigs {
		for _, id := range bench.FigureIDs() {
			fmt.Println(id)
		}
		return
	}

	if *matrix != "" {
		runMatrix(*matrix, *threads, *duration, *warmup, *repeats, *vclock, *jsonOut)
		return
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	var csvFile *os.File
	if *csv != "" {
		f, err := os.OpenFile(*csv, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		csvFile = f
	}
	ids := []string{*fig}
	if *fig == "all" {
		ids = bench.FigureIDs()
	}
	fmt.Fprintf(w, "flitbench: %d threads, %v per cell, invalidating-clwb=%v\n\n",
		*threads, *duration, *invalidate)
	// One report across the requested figures: a cell two figures share
	// (Figure 9's are all Figure 7's) is measured by the first and read
	// by both.
	all := new(bench.Report)
	for _, id := range ids {
		f, ok := bench.FigurePreset(id, *threads, *small, *invalidate)
		if !ok {
			fmt.Fprintf(os.Stderr, "flitbench: unknown figure %q (try -list)\n", id)
			os.Exit(1)
		}
		f.Duration, f.Repeats, f.VirtualClock = *duration, *repeats, *vclock
		start := time.Now()
		var unmeasured []bench.SetCell
		for _, c := range f.Set {
			if all.Find(c.ID()+"/throughput") == nil {
				unmeasured = append(unmeasured, c)
			}
		}
		if f.Set = unmeasured; len(f.Set) > 0 {
			rep, err := f.Run()
			if err != nil {
				fatal(err)
			}
			rep.Cells = append(all.Cells, rep.Cells...)
			all = rep
		}
		for _, table := range f.Tables(all) {
			fmt.Fprintln(w, table.Format())
			if csvFile != nil {
				fmt.Fprintln(csvFile, table.CSV())
			}
		}
		fmt.Fprintf(w, "(figure %s took %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *jsonOut != "" {
		all.Config["matrix"] = "fig-" + strings.Join(ids, ",")
		if err := all.WriteFile(*jsonOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "wrote %d cells to %s\n", len(all.Cells), *jsonOut)
	}
}

// runMatrix executes a preset matrix, applying whichever measurement
// flags the user set explicitly.
func runMatrix(name string, threads int, duration, warmup time.Duration, repeats int, vclock bool, jsonOut string) {
	m, ok := bench.Preset(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "flitbench: unknown matrix %q (known: %s)\n", name, strings.Join(bench.PresetNames(), ", "))
		os.Exit(1)
	}
	m.VirtualClock = vclock
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["threads"] {
		m.Threads = threads
	}
	if set["duration"] {
		m.Duration = duration
	}
	if set["warmup"] {
		m.Warmup = warmup
		if warmup == 0 {
			m.Warmup = -1 // explicit zero: disable, don't re-default
		}
	}
	if set["repeats"] {
		m.Repeats = repeats
	}
	start := time.Now()
	rep, err := m.Run()
	if err != nil {
		fatal(err)
	}
	for _, c := range rep.Cells {
		fmt.Printf("%-60s %14.4g ±%-10.3g %s\n", c.ID, c.Value.Mean, c.Value.Stddev, c.Unit)
	}
	fmt.Printf("(matrix %s: %d cells in %v)\n", name, len(rep.Cells), time.Since(start).Round(time.Millisecond))
	if jsonOut != "" {
		if err := rep.WriteFile(jsonOut); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flitbench:", err)
	os.Exit(1)
}
