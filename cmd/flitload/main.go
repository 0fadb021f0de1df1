// Command flitload is the pipelining load generator for flitstored: it
// drives a YCSB mix through pipelined connections (closed-loop windows,
// or open-loop fixed-rate arrivals with -rate) and reports
// client-observed throughput and tail latency together with the
// server-side instruction deltas — pwbs and fences per acknowledged
// operation, the quantities group commit amortizes.
//
// Against an admission-controlled server the generator keeps running:
// BUSY responses are counted as shed (separately from goodput) and
// reported with the server's own shed counter; with -rate and
// -max-inflight, open-loop arrivals over the inflight cap are dropped
// client-side and counted too.
//
// Usage:
//
//	flitload -addr 127.0.0.1:7117 -load -mix a -dist zipfian -depth 16 -duration 5s
//	flitload -unix /tmp/flitstored.sock -mix c -conns 4 -rate 50000
//	flitload -addr 127.0.0.1:7117 -ping
//	flitload -scrape http://127.0.0.1:9117/metrics
//
// While a run is in flight a once-per-second progress line goes to
// stderr (suppressed under -json); -live upgrades it to a combined
// client+server line by polling STATS on a dedicated connection.
// -scrape fetches a /metrics URL, validates the exposition with the
// same parser the tests use, dumps the page to stdout and exits — the
// CI scrape check with no extra dependencies.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"flit/internal/client"
	"flit/internal/metrics"
	"flit/internal/server"
	"flit/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7117", "server TCP address (ignored with -unix)")
	unixPath := flag.String("unix", "", "connect to a unix socket at this path instead of TCP")
	mix := flag.String("mix", "a", "YCSB mix (a-f)")
	dist := flag.String("dist", workload.DistZipfian, "key distribution (uniform|zipfian|latest)")
	zipfS := flag.Float64("zipfs", 0, "zipfian skew (<=1 selects the default)")
	records := flag.Uint64("records", 1<<14, "keyspace size at run start")
	conns := flag.Int("conns", 1, "parallel connections")
	depth := flag.Int("depth", 16, "closed-loop pipeline frames per connection")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in ops/s across all connections (0 = closed loop)")
	maxInflight := flag.Int("max-inflight", 0, "open-loop cap on outstanding frames per connection; arrivals over it are dropped and counted (0 = 1024)")
	duration := flag.Duration("duration", 3*time.Second, "measured window")
	seed := flag.Int64("seed", 1, "workload seed")
	load := flag.Bool("load", false, "bulk-insert the keyspace over the wire before the run")
	ping := flag.Bool("ping", false, "round-trip one PING and exit (liveness probe)")
	jsonOut := flag.Bool("json", false, "emit the result as JSON (silences progress lines)")
	live := flag.Bool("live", false, "combined client+server progress lines (polls STATS on a dedicated connection)")
	scrape := flag.String("scrape", "", "fetch this /metrics URL, validate the exposition, write it to stdout, and exit")
	flag.Parse()

	if *scrape != "" {
		os.Exit(runScrape(*scrape))
	}

	network, target := "tcp", *addr
	if *unixPath != "" {
		network, target = "unix", *unixPath
	}
	dial := func() (net.Conn, error) { return net.Dial(network, target) }

	if *ping {
		c, err := client.Dial(network, target)
		if err == nil {
			err = c.Ping()
			c.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "flitload: ping: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("flitload: pong")
		return
	}

	if *load {
		t0 := time.Now()
		if err := client.Load(dial, *records, *conns, max(*depth, 1)); err != nil {
			fmt.Fprintf(os.Stderr, "flitload: load: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "flitload: loaded %d records in %v\n", *records, time.Since(t0).Round(time.Millisecond))
	}

	sp := client.Spec{
		Spec: workload.Spec{
			Mix: *mix, Dist: *dist, ZipfS: *zipfS, Records: *records,
			Workers: *conns, Depth: *depth, Duration: *duration, Seed: *seed,
		},
		Rate: *rate, MaxInflight: *maxInflight,
	}
	if !*jsonOut {
		sp.Progress = progressPrinter(*live, network, target)
	}
	res, err := client.Run(dial, sp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flitload: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "flitload: %v\n", err)
			os.Exit(1)
		}
		return
	}
	loop := fmt.Sprintf("closed depth=%d", res.Depth)
	if res.Rate > 0 {
		loop = fmt.Sprintf("open rate=%.0f/s", res.Rate)
	}
	fmt.Printf("flitload: mix=%s dist=%s conns=%d %s: %d ops in %v (%.0f ops/s goodput)\n",
		res.Mix, res.Dist, res.Conns, loop, res.Ops, res.Elapsed.Round(time.Millisecond), res.OpsPerSec)
	if res.Shed > 0 || res.Dropped > 0 {
		fmt.Printf("  backpressure: %d shed by server (%.1f%% shed rate, server counted %d), %d dropped at the inflight cap\n",
			res.Shed, 100*res.ShedRate, res.ServerShed, res.Dropped)
	}
	fmt.Printf("  latency p50=%v p95=%v p99=%v max=%v\n", res.P50, res.P95, res.P99, res.Max)
	fmt.Printf("  server: %d ops in %d batches (%.1f ops/batch), %.3f pwbs/op, %.3f pfences/op\n",
		res.ServerOps, res.ServerBatches, res.OpsPerBatch, res.PWBsPerOp, res.PFencesPerOp)
	if res.ServerP50 > 0 {
		fmt.Printf("  server service time since start p50=%v p95=%v p99=%v max=%v, commit p99=%v\n",
			res.ServerP50, res.ServerP95, res.ServerP99, res.ServerOpMax, res.ServerCommitP99)
	}
}

// progressPrinter builds the Spec.Progress callback: one line per
// second to stderr with the client-side view and — under -live — the
// server-side interval costs polled over a dedicated STATS connection.
// The callback runs on the load generator's monitor goroutine, so the
// dedicated connection never races the workers.
func progressPrinter(live bool, network, target string) func(workload.Progress) {
	var statsC *client.Conn
	var prev server.Stats
	if live {
		if c, err := client.Dial(network, target); err == nil {
			statsC = c
			prev, _ = c.Stats()
		} else {
			fmt.Fprintf(os.Stderr, "flitload: -live stats connection: %v\n", err)
		}
	}
	return func(p workload.Progress) {
		line := fmt.Sprintf("flitload: %6.1fs %9d ops %9.0f ops/s p50=%-9v p99=%-9v",
			p.Elapsed.Seconds(), p.Ops, p.OpsPerSec, p.P50, p.P99)
		if statsC != nil {
			if st, err := statsC.Stats(); err == nil {
				if iv := st.Since(prev); iv.Ops > 0 {
					line += fmt.Sprintf(" | server %.2f pwbs/op %.2f pfences/op %.1f ops/batch",
						iv.PWBsPerOp, iv.PFencesPerOp, iv.OpsPerBatch)
				}
				if st.Metrics != nil {
					line += fmt.Sprintf(" p99 since start=%v", time.Duration(st.Metrics.OpP99Ns))
				}
				prev = st
			} else {
				statsC.Close()
				statsC = nil
			}
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// runScrape fetches url, validates the Prometheus exposition with the
// shared parser, writes the page to stdout (the CI artifact) and a
// summary to stderr. Exit status 1 marks an invalid page.
func runScrape(url string) int {
	resp, err := http.Get(url)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flitload: scrape: %v\n", err)
		return 1
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "flitload: scrape: read: %v\n", err)
		return 1
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "flitload: scrape: HTTP %d\n%s", resp.StatusCode, body)
		return 1
	}
	os.Stdout.Write(body)
	st, err := metrics.ValidateExposition(body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flitload: scrape: invalid exposition: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "flitload: scrape ok: %d families, %d samples\n", st.Families, st.Samples)
	return 0
}
