// Command flitstored serves a FliT-Store over the network front-end's
// pipelined binary protocol with group-commit durability batching: each
// connection's pipeline executes as one batch under a single fence
// before any response is written (see internal/server).
//
// Usage:
//
//	flitstored -listen 127.0.0.1:7117 -records 100000
//	flitstored -unix /tmp/flitstored.sock -policy flit-ht -shards 8
//
// The store lives in simulated persistent memory inside the process;
// -records prefills the keyspace in-process before serving (the YCSB
// load phase), so load generators can start on a warm store. With
// -recover the prefilled store is crash-simulated (unfenced write-backs
// dropped) and rebuilt from its persistent image before serving, so the
// recovery metrics on /metrics describe a real rebuild.
//
// Observability: metrics are on by default (-metrics=false turns the
// lock-free core off). -metrics-addr serves a Prometheus-style /metrics
// page over HTTP, -dash prints a once-per-second status line while
// serving, and -stats-json writes the final counters (plus recovery
// stats, if any) to a file on shutdown.
//
// Resilience: -max-conns, -max-inflight, -rate-limit and -burst bound
// admission (excess work is shed with BUSY + retry-after, never half
// executed); -idle-timeout and -write-timeout bound connection
// lifetimes. SIGINT/SIGTERM drains gracefully — in-flight batches
// commit and ack, buffered pipelines are answered DRAINING — bounded
// by -drain-timeout; a second signal cuts the remaining connections.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/pmem"
	"flit/internal/server"
	"flit/internal/store"
	"flit/internal/workload"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7117", "TCP listen address (ignored with -unix)")
	unixPath := flag.String("unix", "", "serve on a unix socket at this path instead of TCP")
	shards := flag.Int("shards", 8, "store shard count")
	policy := flag.String("policy", core.PolicyHT, "persistence policy")
	modeName := flag.String("mode", dstruct.Automatic.String(), "durability mode (automatic|nvtraverse|manual)")
	expected := flag.Int("expected-keys", 1<<16, "expected keyspace size (memory sizing)")
	records := flag.Uint64("records", 0, "prefill this many records in-process before serving")
	batch := flag.Int("batch", 64, "max operations per group commit")
	maxConns := flag.Int("max-conns", 0, "cap concurrently served connections; excess get one BUSY frame (0 = unlimited)")
	maxInflight := flag.Int("max-inflight", 0, "cap store ops executing across all connections; excess batches are shed BUSY (0 = unlimited)")
	rateLimit := flag.Float64("rate-limit", 0, "admission cap in store ops/s; excess batches are shed BUSY with a retry-after hint (0 = unlimited)")
	rateBurst := flag.Int("burst", 0, "admission token-bucket burst (0 = 4*batch)")
	idleTimeout := flag.Duration("idle-timeout", 0, "reap connections idle at a pipeline head for this long (0 = never)")
	writeTimeout := flag.Duration("write-timeout", 0, "slow-reader budget: responses must be accepted within this (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-drain budget on SIGINT/SIGTERM before remaining connections are cut")
	threads := flag.Int("load-threads", 4, "prefill parallelism")
	vclock := flag.Bool("vclock", false, "virtual-clock cost mode (no spin latency)")
	metricsOn := flag.Bool("metrics", true, "enable the lock-free metrics core (op histograms, STATS v2, /metrics histogram families)")
	metricsAddr := flag.String("metrics-addr", "", "serve a Prometheus-style /metrics page over HTTP on this address")
	dash := flag.Bool("dash", false, "print a once-per-second status line while serving (needs -metrics)")
	statsJSON := flag.String("stats-json", "", "write final stats (and recovery stats, if any) as JSON to this path on shutdown")
	recoverStore := flag.Bool("recover", false, "crash-simulate the prefilled store and serve the recovered image")
	flag.Parse()

	mode, ok := dstruct.ModeByName(*modeName)
	if !ok {
		fmt.Fprintf(os.Stderr, "flitstored: unknown mode %q (known: %v)\n", *modeName, dstruct.Modes)
		os.Exit(2)
	}
	st, err := store.New(store.Options{
		Shards: *shards, ExpectedKeys: *expected, Policy: *policy,
		Mode: mode, VirtualClock: *vclock,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "flitstored: %v\n", err)
		os.Exit(2)
	}
	if *records > 0 {
		elapsed, ops := workload.Load(st, *records, *threads)
		fmt.Printf("flitstored: loaded %d records in %v (%.0f ops/s)\n", *records, elapsed.Round(0), ops)
	}
	if *recoverStore {
		// Crash the store the honest way — take the persistent image with
		// unfenced write-backs dropped — and serve the rebuild, so the
		// flit_recovery_seconds families describe a real recovery.
		wm := st.Heap().Watermark()
		img := st.Mem().CrashImage(pmem.DropUnfenced, 1)
		mem2 := pmem.NewFromImage(img, st.Mem().Config())
		st2, rs, err := store.Recover(mem2, wm, st.Opts())
		if err != nil {
			fmt.Fprintf(os.Stderr, "flitstored: recover: %v\n", err)
			os.Exit(2)
		}
		st = st2
		fmt.Printf("flitstored: recovered %d keys in %v across %d shards, %d bucket chains rebuilt\n",
			rs.Keys, rs.Elapsed.Round(0), len(rs.Shards), rs.Rebuilt)
	}

	network, addr := "tcp", *listen
	if *unixPath != "" {
		network, addr = "unix", *unixPath
		os.Remove(addr) // stale socket from a previous run
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flitstored: %v\n", err)
		os.Exit(2)
	}
	srv := server.New(st, server.Options{
		MaxBatch: *batch, Metrics: *metricsOn,
		MaxConns: *maxConns, MaxInflight: *maxInflight,
		RateLimit: *rateLimit, RateBurst: *rateBurst,
		IdleTimeout: *idleTimeout, WriteTimeout: *writeTimeout,
		Logger: log.New(os.Stderr, "flitstored: ", 0),
	})

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flitstored: metrics listener: %v\n", err)
			os.Exit(2)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		metricsSrv = &http.Server{Handler: mux}
		go metricsSrv.Serve(mln)
		// Print the bound address so :0 is usable under test harnesses.
		fmt.Printf("flitstored: metrics on http://%s/metrics\n", mln.Addr())
	}

	stopDash := func() {}
	if *dash {
		ring, stop := srv.StartSampler(time.Second, 600)
		if ring == nil {
			fmt.Fprintln(os.Stderr, "flitstored: -dash needs -metrics")
			os.Exit(2)
		}
		dashDone := make(chan struct{})
		go func() {
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-dashDone:
					return
				case <-tick.C:
				}
				if s, ok := ring.Last(); ok {
					fmt.Printf("flitstored: %8.0f ops/s | p50 %v p99 %v | %.1f ops/batch | %.2f pwbs/op %.2f pfences/op | %d conns\n",
						s.OpsPerSec, time.Duration(s.P50Ns).Round(time.Nanosecond),
						time.Duration(s.P99Ns).Round(time.Nanosecond),
						s.OpsPerBatch, s.PWBsPerOp, s.PFencesPerOp, s.Conns)
				}
			}
		}()
		stopDash = func() { close(dashDone); stop() }
	}

	// First signal: graceful drain — stop accepting, answer buffered
	// pipelines DRAINING, let in-flight batches commit and ack, then
	// close (bounded by -drain-timeout). Second signal: cut hard.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "flitstored: %v: draining (budget %v; signal again to force close)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- srv.Shutdown(ctx) }()
		select {
		case err := <-done:
			if err != nil {
				fmt.Fprintf(os.Stderr, "flitstored: drain cut short: %v\n", err)
			}
		case <-sigc:
			fmt.Fprintln(os.Stderr, "flitstored: second signal: closing now")
			srv.Close()
		}
	}()

	fmt.Printf("flitstored: serving %s/%s on %s://%s (batch %d)\n",
		st.Opts().Policy, mode, network, ln.Addr(), *batch)
	err = srv.Serve(ln)
	stopDash()
	if metricsSrv != nil {
		metricsSrv.Close()
	}
	stats := srv.Stats()
	fmt.Printf("flitstored: served %d ops in %d batches over %d conns (%.1f ops/batch)\n",
		stats.OpsServed, stats.Batches, stats.Conns,
		float64(stats.OpsServed)/max(1, float64(stats.Batches)))
	if shed := stats.ShedBusy + stats.ShedDraining + stats.ConnsRejected; shed > 0 || len(stats.ConnErrors) > 0 {
		fmt.Printf("flitstored: shed %d busy + %d draining ops, rejected %d conns, conn errors %v\n",
			stats.ShedBusy, stats.ShedDraining, stats.ConnsRejected, stats.ConnErrors)
	}
	if *statsJSON != "" {
		out := struct {
			Stats    server.Stats         `json:"stats"`
			Recovery *store.RecoveryStats `json:"recovery,omitempty"`
		}{stats, st.LastRecovery()}
		data, jerr := json.MarshalIndent(out, "", "  ")
		if jerr == nil {
			jerr = os.WriteFile(*statsJSON, append(data, '\n'), 0o644)
		}
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "flitstored: stats-json: %v\n", jerr)
			os.Exit(1)
		}
		fmt.Printf("flitstored: wrote final stats to %s\n", *statsJSON)
	}
	if *unixPath != "" {
		os.Remove(*unixPath)
	}
	if err != nil && err != server.ErrClosed {
		fmt.Fprintf(os.Stderr, "flitstored: %v\n", err)
		os.Exit(1)
	}
}
