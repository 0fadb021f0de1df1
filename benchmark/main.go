// Command benchmark is the repository's one gateable benchmark: four
// fixed-op-count workloads over the request path (client -> socket -> server
// -> session -> hashtable -> policy -> pmem), count metrics that repeat
// exactly, and wall-clock metrics with estimators matched to the box's noise.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(attempted, failed int, vals []value) report {
	r := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]jsonMetric, len(vals))}
	for _, v := range vals {
		r.Metrics[v.def.name] = jsonMetric{v.v, v.def.unit}
	}
	return r
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four, one result line each)")
		seed         = flag.Int64("seed", 1, "seed of the generated op stream and of the crash image")
		seconds      = flag.Int("seconds", 20, "length of the timed region on the reference box; the op count is a fixed multiple of it")
		trace        = flag.String("trace", "0", "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics; a path: as 1, and the spans are written there")
		quick        = flag.Bool("quick", false, "1/1000 scale: exercises every path, measures nothing")
		noise        = flag.Int("noise", 0, "run every workload N times, seeds seed..seed+N-1, and print the run-to-run spread of each end-to-end metric under both estimators")
		tmp          = flag.String("tmp", tmpDirDefault, "directory for the unix sockets and the default span file")
		jsonOut      = flag.String("json", "", "also write the results to this file, keyed by workload: the input of the compare subcommand")
		selftest     = flag.Bool("selftest", false, "point the harness at a store that persists nothing and require it to report failed operations")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	runtime.GOMAXPROCS(procs())

	if *selftest {
		os.Exit(selfTest(os.Stdout, *tmp))
	}
	run := specs
	if *workloadName != "" {
		sp, err := specByName(*workloadName)
		if err != nil {
			fatal(err)
		}
		run = []spec{*sp}
	}
	if *noise > 0 {
		if err := noiseTable(os.Stdout, run, *noise, *seed, *seconds, *tmp); err != nil {
			fatal(err)
		}
		return
	}

	failed := 0
	results := resultFile{}
	for i := range run {
		sp := &run[i]
		sc := fullScale(sp, *seconds)
		if *quick {
			sc = quickScale(sp)
		}
		var rep report
		var err error
		if *trace == "0" {
			rep, err = measure(os.Stdout, sp, sc, *seed, *tmp)
		} else {
			out := *trace
			if out == "1" {
				out = filepath.Join(*tmp, "trace-"+sp.name+".json")
			}
			rep, err = measureTraced(os.Stdout, sp, sc, *seed, *tmp, out)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", sp.name, err))
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		failed += rep.Failed
		results[sp.name] = rep
	}
	if *jsonOut != "" {
		b, err := json.Marshal(results)
		if err == nil {
			err = os.WriteFile(*jsonOut, b, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(2)
}

const (
	policy = "flit-ht"
	// tmpDirDefault keeps sockets and span files inside the checkout.
	tmpDirDefault = ".bench_build/tmp"
)

// selfTest is the planted bug: emb_write at test scale on the no-persist
// policy, whose acknowledged writes do not survive the crash. It succeeds
// when the harness counts failures.
func selfTest(w io.Writer, tmp string) int {
	sp, _ := specByName("emb_write")
	rs, err := runWorkload(sp, quickScale(sp), 1, "no-persist", tmp, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: selftest: %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "selftest: policy no-persist: %d of %d post-crash checks failed (must be > 0)\n", rs.rec.mismatch, rs.rec.checked)
	if rs.rec.mismatch == 0 {
		return 1
	}
	return 0
}

func header(w io.Writer, sp *spec, sc scale, seed int64) {
	o := storeOptions(sc, policy)
	fmt.Fprintf(w, "workload %s seed %d: %d rounds x %d segments x %d ops, %d keys, closed loop; %s\n", sp.name, seed, sc.rounds, sc.segsPerRound, sc.segOps, sc.records, sp.why)
	fmt.Fprintf(w, "  store shards=%d policy=%s mode=%v vclock=%v expected_keys=%d mem_words=%d; server metrics=on; GOMAXPROCS=%d\n",
		o.Shards, o.Policy, o.Mode, o.VirtualClock, o.ExpectedKeys, o.MemWords, runtime.GOMAXPROCS(0))
}

// measure is the untraced run: the end-to-end metrics.
func measure(w io.Writer, sp *spec, sc scale, seed int64, tmp string) (report, error) {
	header(w, sp, sc, seed)
	rs, err := runWorkload(sp, sc, seed, policy, tmp, nil)
	if err != nil {
		return report{}, err
	}
	vals := rs.endToEnd()
	printValues(w, "end-to-end", vals)
	fast, med, whole := rs.opsPerSecond()
	fmt.Fprintf(w, "  untrimmed %.0f ops/s; quietest segments %.0f; median segment %.0f; p%.4g over %d samples/segment; stream %016x; %d attempted, %d failed\n",
		whole, fast, med, rs.tailPct, rs.samples, rs.digest, rs.attempted, rs.failed())
	return newReport(rs.attempted, rs.failed(), vals), nil
}
