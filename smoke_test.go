// Smoke coverage for the main packages: the binaries under cmd/ and
// examples/ have no test files of their own, so this suite builds every
// one of them, runs the quickstart example and the flitstored + flitload
// service path end-to-end, and drives the flitvet static analyzer against
// a module with one seeded violation per analyzer.
package flit_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// liveBuffer collects a child process's output while the test reads it:
// os/exec appends from its own goroutine for as long as the child runs.
type liveBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *liveBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *liveBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func goTool(t *testing.T) string {
	t.Helper()
	path, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH; skipping smoke build")
	}
	return path
}

// TestBuildAllMainPackages compiles every cmd/ and examples/ binary into a
// scratch directory.
func TestBuildAllMainPackages(t *testing.T) {
	gobin := goTool(t)
	out, err := exec.Command(gobin, "list", "./cmd/...", "./examples/...").Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	pkgs := strings.Fields(string(out))
	if len(pkgs) < 9 {
		t.Fatalf("expected at least 9 main packages, go list found %d: %v", len(pkgs), pkgs)
	}
	found := false
	for _, p := range pkgs {
		if p == "flit/cmd/flitvet" {
			found = true
		}
	}
	if !found {
		t.Fatalf("cmd/flitvet missing from the build battery: %v", pkgs)
	}
	args := append([]string{"build", "-o", t.TempDir()}, pkgs...)
	if out, err := exec.Command(gobin, args...).CombinedOutput(); err != nil {
		t.Fatalf("go build %v: %v\n%s", pkgs, err, out)
	}
}

// TestQuickstartEndToEnd runs the quickstart example and checks the
// crash-recovery narrative it prints.
func TestQuickstartEndToEnd(t *testing.T) {
	gobin := goTool(t)
	out, err := exec.Command(gobin, "run", "./examples/quickstart").CombinedOutput()
	if err != nil {
		t.Fatalf("quickstart failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"durable linearizability held",
		"post-recovery insert works: true",
	} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("quickstart output missing %q:\n%s", want, out)
		}
	}
}

// TestFlitstoredLoadgenEndToEnd boots the network daemon on a unix
// socket, probes it with the load generator's ping, drives a short
// pipelined run, and checks the server reports group-commit batching.
// The binaries are built once and executed directly (not `go run`) so
// signals reach the daemon and no orphaned grandchild can outlive the
// test.
func TestFlitstoredLoadgenEndToEnd(t *testing.T) {
	gobin := goTool(t)
	dir := t.TempDir()
	if out, err := exec.Command(gobin, "build", "-o", dir, "./cmd/flitstored", "./cmd/flitload").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	stored := filepath.Join(dir, "flitstored")
	load := filepath.Join(dir, "flitload")
	sock := filepath.Join(dir, "flitstored.sock")

	srv := exec.Command(stored, "-unix", sock, "-shards", "4", "-records", "1024", "-vclock")
	var srvOut liveBuffer
	srv.Stdout, srv.Stderr = &srvOut, &srvOut
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { srv.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			srv.Process.Kill()
			<-done
		}
		t.Logf("flitstored output:\n%s", srvOut.String())
		if !strings.Contains(srvOut.String(), "served") {
			t.Errorf("flitstored shutdown summary missing from output")
		}
	}()

	// Await readiness via the liveness probe.
	deadline := time.Now().Add(30 * time.Second)
	for {
		out, err := exec.Command(load, "-unix", sock, "-ping").CombinedOutput()
		if err == nil && strings.Contains(string(out), "pong") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flitstored never became ready: %v\n%s\nserver:\n%s", err, out, srvOut.String())
		}
		time.Sleep(100 * time.Millisecond)
	}

	out, err := exec.Command(load,
		"-unix", sock, "-mix", "a", "-dist", "zipfian", "-records", "1024",
		"-conns", "2", "-depth", "16", "-duration", "200ms", "-json").Output()
	if err != nil {
		t.Fatalf("flitload failed: %v\n%s\nserver:\n%s", err, out, srvOut.String())
	}
	var res struct {
		Ops         uint64  `json:"ops"`
		ServerOps   uint64  `json:"server_ops"`
		Batches     uint64  `json:"server_batches"`
		OpsPerBatch float64 `json:"ops_per_batch"`
		PWBsPerOp   float64 `json:"pwbs_per_op"`
		P50         int64   `json:"p50_ns"`
	}
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("flitload output is not valid JSON: %v\n%s", err, out)
	}
	if res.Ops == 0 || res.ServerOps == 0 || res.Batches == 0 {
		t.Fatalf("no traffic recorded: %+v", res)
	}
	if res.OpsPerBatch <= 1.5 {
		t.Fatalf("ops/batch = %.2f at depth 16: the server is not batching", res.OpsPerBatch)
	}
	if res.PWBsPerOp <= 0 || res.P50 <= 0 {
		t.Fatalf("implausible run stats: %+v", res)
	}
}

// TestFlitstoredObservabilityEndToEnd exercises the observability layer
// through the real binaries: flitstored boots with a crash-recovered
// store, an HTTP /metrics endpoint, and a stats-json sink; flitload
// drives traffic with -live progress lines, validates the exposition
// page with -scrape, and reports the STATS v2 server-side quantiles in
// its JSON result; the shutdown stats file carries recovery stats.
func TestFlitstoredObservabilityEndToEnd(t *testing.T) {
	gobin := goTool(t)
	dir := t.TempDir()
	if out, err := exec.Command(gobin, "build", "-o", dir, "./cmd/flitstored", "./cmd/flitload").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	stored := filepath.Join(dir, "flitstored")
	load := filepath.Join(dir, "flitload")
	sock := filepath.Join(dir, "flitstored.sock")
	statsPath := filepath.Join(dir, "stats.json")

	srv := exec.Command(stored, "-unix", sock, "-shards", "4", "-records", "1024",
		"-vclock", "-recover", "-metrics-addr", "127.0.0.1:0", "-stats-json", statsPath)
	var srvOut liveBuffer
	srv.Stdout, srv.Stderr = &srvOut, &srvOut
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	srvDone := make(chan struct{})
	go func() { srv.Wait(); close(srvDone) }()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		srv.Process.Signal(os.Interrupt)
		select {
		case <-srvDone:
		case <-time.After(10 * time.Second):
			srv.Process.Kill()
			<-srvDone
		}
	}
	defer stop()

	deadline := time.Now().Add(30 * time.Second)
	for {
		out, err := exec.Command(load, "-unix", sock, "-ping").CombinedOutput()
		if err == nil && strings.Contains(string(out), "pong") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flitstored never became ready: %v\n%s\nserver:\n%s", err, out, srvOut.String())
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !strings.Contains(srvOut.String(), "recovered 1024 keys") {
		t.Fatalf("server did not report the boot-time recovery:\n%s", srvOut.String())
	}
	// The daemon prints the bound metrics address so :0 works here.
	var metricsURL string
	for _, line := range strings.Split(srvOut.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "flitstored: metrics on "); ok {
			metricsURL = strings.TrimSpace(rest)
		}
	}
	if metricsURL == "" {
		t.Fatalf("server never printed the metrics address:\n%s", srvOut.String())
	}

	// A -live run: progress lines go to stderr, the result to stdout.
	var liveOut, liveErr bytes.Buffer
	liveCmd := exec.Command(load, "-unix", sock, "-mix", "a", "-dist", "zipfian",
		"-records", "1024", "-conns", "2", "-depth", "16", "-duration", "1300ms", "-live")
	liveCmd.Stdout, liveCmd.Stderr = &liveOut, &liveErr
	if err := liveCmd.Run(); err != nil {
		t.Fatalf("flitload -live failed: %v\n%s%s", err, liveOut.String(), liveErr.String())
	}
	if !strings.Contains(liveErr.String(), "ops/s") || !strings.Contains(liveErr.String(), "pwbs/op") {
		t.Fatalf("-live printed no combined progress line:\n%s", liveErr.String())
	}
	if !strings.Contains(liveOut.String(), "server service time") {
		t.Fatalf("final report missing server-side quantiles:\n%s", liveOut.String())
	}

	// The scrape mode validates the exposition with the shared parser.
	var scrapeOut, scrapeErr bytes.Buffer
	scrapeCmd := exec.Command(load, "-scrape", metricsURL)
	scrapeCmd.Stdout, scrapeCmd.Stderr = &scrapeOut, &scrapeErr
	if err := scrapeCmd.Run(); err != nil {
		t.Fatalf("flitload -scrape failed: %v\n%s", err, scrapeErr.String())
	}
	for _, want := range []string{
		"flit_op_seconds_bucket{op=\"put\",le=\"+Inf\"}",
		"flit_batch_ops_sum",
		"flit_recovery_seconds{shard=\"0\"}",
		"flit_recovery_keys 1024",
	} {
		if !strings.Contains(scrapeOut.String(), want) {
			t.Fatalf("scrape missing %q:\n%s", want, scrapeOut.String())
		}
	}

	// A -json run must carry the STATS v2 server-side quantiles.
	out, err := exec.Command(load, "-unix", sock, "-mix", "a", "-records", "1024",
		"-conns", "1", "-depth", "8", "-duration", "150ms", "-json").Output()
	if err != nil {
		t.Fatalf("flitload -json failed: %v\n%s", err, out)
	}
	var res struct {
		Ops       uint64 `json:"ops"`
		ServerP50 int64  `json:"server_p50_ns"`
		ServerP99 int64  `json:"server_p99_ns"`
	}
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("flitload output is not valid JSON: %v\n%s", err, out)
	}
	if res.Ops == 0 || res.ServerP50 <= 0 || res.ServerP99 < res.ServerP50 {
		t.Fatalf("server quantiles missing from JSON result: %+v", res)
	}

	// Shutdown writes the final stats + recovery JSON.
	stop()
	data, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatalf("stats-json not written: %v\nserver:\n%s", err, srvOut.String())
	}
	var final struct {
		Stats struct {
			Version   int    `json:"v"`
			OpsServed uint64 `json:"ops_served"`
			Metrics   *struct {
				OpP99Ns int64 `json:"op_p99_ns"`
			} `json:"metrics"`
		} `json:"stats"`
		Recovery *struct {
			Keys int `json:"Keys"`
		} `json:"recovery"`
	}
	if err := json.Unmarshal(data, &final); err != nil {
		t.Fatalf("stats-json is not valid JSON: %v\n%s", err, data)
	}
	if final.Stats.Version != 2 || final.Stats.OpsServed == 0 ||
		final.Stats.Metrics == nil || final.Stats.Metrics.OpP99Ns <= 0 {
		t.Fatalf("stats-json missing v2 metrics: %s", data)
	}
	if final.Recovery == nil || final.Recovery.Keys != 1024 {
		t.Fatalf("stats-json missing recovery stats: %s", data)
	}
}

// TestFlitvetEndToEnd builds the flitvet static-analysis driver and runs
// it against a throwaway module seeded with exactly one violation per
// analyzer: a raw pmem store (persistraw), a thread handle leaked on an
// early return (handleclose), a response written before the batch
// commits (ackorder), and an fmt call on a //flit:hotpath function
// (hotpath). flitvet must exit 1 and name all four analyzers.
func TestFlitvetEndToEnd(t *testing.T) {
	gobin := goTool(t)
	bin := filepath.Join(t.TempDir(), "flitvet")
	if out, err := exec.Command(gobin, "build", "-o", bin, "./cmd/flitvet").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/flitvet: %v\n%s", err, out)
	}

	mod := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(mod, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write("go.mod", "module vetcheck\n\ngo 1.24\n")
	// The import path suffix internal/pmem makes this stub the
	// protocol-owning package in the analyzers' eyes.
	write("internal/pmem/pmem.go", `package pmem

type Addr uint64

type Thread struct{}

func (t *Thread) Store(a Addr, v uint64) {}
func (t *Thread) Release()               {}

type Memory struct{}

func (m *Memory) RegisterThread() *Thread { return &Thread{} }
`)
	// ackorder scope: a batch carrier type in an internal/server-suffixed
	// package, acked between the effect and the commit.
	write("internal/server/server.go", `package server

type Batch struct{}

func (b *Batch) Put(k, v string) {}
func (b *Batch) Commit()         {}

func writeResp() {}

func Handle(b *Batch) {
	b.Put("k", "v")
	writeResp()
	b.Commit()
}
`)
	write("app/app.go", `package app

import (
	"errors"
	"fmt"

	"vetcheck/internal/pmem"
)

var errBusy = errors.New("busy")

// rawStore bypasses the policy skeleton: persistraw.
func rawStore(t *pmem.Thread, a pmem.Addr, v uint64) {
	t.Store(a, v)
}

// leakOnError drops the thread handle on the early return: handleclose.
func leakOnError(m *pmem.Memory, bad bool) error {
	t := m.RegisterThread()
	if bad {
		return errBusy
	}
	t.Release()
	return nil
}

// hot allocates via fmt on an annotated hot path: hotpath.
//
//flit:hotpath
func hot(v int) string {
	return fmt.Sprintf("%d", v)
}

var _ = rawStore
var _ = leakOnError
var _ = hot
`)

	out, err := exec.Command(bin, "-dir", mod, "./...").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("flitvet on seeded module: want exit 1, got err=%v\n%s", err, out)
	}
	for _, analyzer := range []string{"persistraw", "handleclose", "ackorder", "hotpath"} {
		if !strings.Contains(string(out), analyzer+":") {
			t.Errorf("flitvet output missing a %s finding:\n%s", analyzer, out)
		}
	}
}
