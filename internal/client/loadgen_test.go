package client_test

import (
	"encoding/json"
	"maps"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"flit/internal/client"
	"flit/internal/core"
	"flit/internal/resilience"
	"flit/internal/server"
	"flit/internal/store"
	"flit/internal/workload"
)

// pipeDialer boots an in-process server over a fresh store and returns
// both and a dialer minting net.Pipe connections served by it.
func pipeDialer(t *testing.T, opts server.Options) (*server.Server, *store.Store, func() (net.Conn, error)) {
	t.Helper()
	st, err := store.New(store.Options{
		Shards: 4, ExpectedKeys: 1 << 12, Policy: core.PolicyHT,
		HTBytes: 1 << 14, VirtualClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(st, opts)
	t.Cleanup(func() { srv.Close() })
	return srv, st, func() (net.Conn, error) {
		cc, sc := net.Pipe()
		go srv.ServeConn(sc)
		return cc, nil
	}
}

// TestLoadAndRunClosedLoop: the wire load phase populates the store,
// and a closed-loop run at depth 16 forms multi-op server batches.
func TestLoadAndRunClosedLoop(t *testing.T) {
	_, st, dial := pipeDialer(t, server.Options{})
	const records = 512
	if err := client.Load(dial, records, 2, 16); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if len(snap) != records {
		t.Fatalf("load phase left %d keys, want %d", len(snap), records)
	}

	res, err := client.Run(dial, client.Spec{Spec: workload.Spec{
		Mix: "a", Dist: workload.DistZipfian, Records: records,
		Workers: 2, Depth: 16, Duration: 150 * time.Millisecond, Seed: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.ServerOps == 0 {
		t.Fatalf("no ops recorded: %+v", res)
	}
	if res.Reads == 0 || res.Updates == 0 {
		t.Fatalf("mix a produced reads=%d updates=%d", res.Reads, res.Updates)
	}
	if res.OpsPerBatch <= 1.5 {
		t.Fatalf("ops/batch = %.2f at depth 16: pipeline batching is not happening", res.OpsPerBatch)
	}
	if res.PWBsPerOp <= 0 {
		t.Fatalf("pwbs/op = %v for an update-heavy mix", res.PWBsPerOp)
	}
	if res.P50 <= 0 || res.Max < res.P99 || res.P99 < res.P50 {
		t.Fatalf("latency ordering broken: p50=%v p99=%v max=%v", res.P50, res.P99, res.Max)
	}
}

// TestRunOpenLoop: the fixed-rate arrival mode paces operations and
// measures from the schedule.
func TestRunOpenLoop(t *testing.T) {
	_, _, dial := pipeDialer(t, server.Options{})
	if err := client.Load(dial, 256, 1, 16); err != nil {
		t.Fatal(err)
	}
	res, err := client.Run(dial, client.Spec{Spec: workload.Spec{
		Mix: "b", Dist: workload.DistUniform, Records: 256,
		Workers: 2, Duration: 200 * time.Millisecond, Seed: 3,
	}, Rate: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("open loop recorded no ops")
	}
	// 2000/s over ~200ms ≈ 400 arrivals; allow generous slack for
	// scheduler jitter, but the pacing must bite in both directions.
	if res.Ops > 500 {
		t.Fatalf("open loop ran %d ops at rate 2000/s over 200ms: pacing is not limiting", res.Ops)
	}
	if res.Ops < 100 {
		t.Fatalf("open loop ran only %d ops at rate 2000/s over 200ms", res.Ops)
	}
}

// TestRunProgressAndServerQuantiles: against a metrics-enabled server,
// the monitor goroutine delivers live Progress snapshots and the final
// Result carries the server-side service-time quantiles from STATS v2.
func TestRunProgressAndServerQuantiles(t *testing.T) {
	_, _, dial := pipeDialer(t, server.Options{Metrics: true})
	if err := client.Load(dial, 256, 1, 16); err != nil {
		t.Fatal(err)
	}
	var snaps []workload.Progress
	// Open loop at a modest rate: the run must outlast two of the
	// monitor's one-second ticks without holding both CPUs of a small
	// box for that long.
	res, err := client.Run(dial, client.Spec{Spec: workload.Spec{
		Mix: "a", Dist: workload.DistUniform, Records: 256,
		Workers: 2, Depth: 8, Duration: 2500 * time.Millisecond, Seed: 7,
		Progress: func(p workload.Progress) { snaps = append(snaps, p) },
	}, Rate: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("monitor delivered %d progress snapshots over 2.5s at 1s", len(snaps))
	}
	var sawRate bool
	for i, p := range snaps {
		if i > 0 && p.Ops < snaps[i-1].Ops {
			t.Fatalf("cumulative ops went backwards: %+v after %+v", p, snaps[i-1])
		}
		if i > 0 && p.Elapsed <= snaps[i-1].Elapsed {
			t.Fatalf("elapsed not increasing at snapshot %d", i)
		}
		if p.OpsPerSec > 0 {
			sawRate = true
			if p.P99 < p.P50 {
				t.Fatalf("interval quantiles out of order: %+v", p)
			}
		}
	}
	if !sawRate {
		t.Fatal("no progress snapshot observed a positive op rate")
	}
	if last := snaps[len(snaps)-1]; last.Ops > res.Ops {
		t.Fatalf("last snapshot saw %d ops, final result %d", last.Ops, res.Ops)
	}
	if res.ServerP50 <= 0 || res.ServerP99 < res.ServerP50 || res.ServerOpMax < res.ServerP99 {
		t.Fatalf("server-side quantiles missing or out of order: %+v", res)
	}
	if res.ServerCommitP99 <= 0 {
		t.Fatalf("server commit p99 missing: %+v", res)
	}
	if res.ServerP99 > res.P99 {
		t.Fatalf("server service time p99 %v exceeds client round-trip p99 %v", res.ServerP99, res.P99)
	}
}

// TestRunScanAndRMWFrames: mixes expanding ops to multiple frames (E's
// scan bursts, F's GET+PUT) stay in protocol sync end to end.
func TestRunScanAndRMWFrames(t *testing.T) {
	for _, mix := range []string{"e", "f"} {
		_, _, dial := pipeDialer(t, server.Options{})
		if err := client.Load(dial, 256, 1, 16); err != nil {
			t.Fatal(err)
		}
		res, err := client.Run(dial, client.Spec{Spec: workload.Spec{
			Mix: mix, Dist: workload.DistUniform, Records: 256,
			Workers: 1, Depth: 8, Duration: 100 * time.Millisecond, Seed: 5,
		}})
		if err != nil {
			t.Fatalf("mix %s: %v", mix, err)
		}
		if res.Ops == 0 {
			t.Fatalf("mix %s recorded no ops", mix)
		}
		if mix == "e" && res.Scans == 0 {
			t.Fatal("mix e produced no scans")
		}
		if mix == "f" && res.RMWs == 0 {
			t.Fatal("mix f produced no rmws")
		}
	}
}

// TestRunClosedLoopShedsUnderRateLimit: against an admission-controlled
// server the load generator keeps running, counts shed operations
// separately from goodput, and its count agrees with the server's.
func TestRunClosedLoopShedsUnderRateLimit(t *testing.T) {
	srv, _, dial := pipeDialer(t, server.Options{MaxBatch: 8, RateLimit: 500, RateBurst: 8})
	if err := client.Load(dial, 256, 1, 4); err == nil {
		// The load phase itself may be shed under this tight limit; both
		// outcomes are fine — the run below is the subject.
		_ = err
	}
	res, err := client.Run(dial, client.Spec{Spec: workload.Spec{
		Mix: "a", Dist: workload.DistUniform, Records: 256,
		Workers: 2, Depth: 8, Duration: 200 * time.Millisecond, Seed: 11,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatalf("no shed ops at 500 ops/s with 2 conns depth 8: %+v", res)
	}
	if res.ShedRate <= 0 || res.ShedRate >= 1 {
		t.Fatalf("ShedRate = %v, want in (0,1)", res.ShedRate)
	}
	if res.ServerShed == 0 {
		t.Fatal("server shed counter did not move")
	}
	_ = srv
}

// TestRunOpenLoopBackpressure: an open-loop rate far above what the
// response path can drain must not queue unboundedly — arrivals over
// the inflight cap are dropped and counted. The response path is slowed
// with injected read delays so inflight actually builds up; the
// transport is TCP, not net.Pipe, because a synchronous pipe would
// cascade the stall back into the sender's Flush (the sender would
// block instead of dropping).
func TestRunOpenLoopBackpressure(t *testing.T) {
	st, err := store.New(store.Options{
		Shards: 4, ExpectedKeys: 1 << 12, Policy: core.PolicyHT,
		HTBytes: 1 << 14, VirtualClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(st, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("tcp unavailable: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	dial := func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) }
	if err := client.Load(dial, 128, 1, 4); err != nil {
		t.Fatal(err)
	}
	slowDial := func() (net.Conn, error) {
		nc, err := dial()
		if err != nil {
			return nil, err
		}
		return resilience.WrapConn(nc, resilience.Faults{
			Seed: 13, DelayEvery: 1, ReadDelay: 5 * time.Millisecond,
		}), nil
	}
	res, err := client.Run(slowDial, client.Spec{Spec: workload.Spec{
		Mix: "b", Dist: workload.DistUniform, Records: 128,
		Workers: 1, Duration: 200 * time.Millisecond, Seed: 13,
	}, Rate: 20000, MaxInflight: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatalf("no dropped arrivals at 20k/s against a 5ms-per-read response path: %+v", res)
	}
	if res.Ops == 0 {
		t.Fatalf("backpressure starved the run entirely: %+v", res)
	}
}

// TestRunRejectsMixWithAdds: the wire has no ADD opcode, so a mix with
// Add ops (G) is rejected — naming the mix, before anything is dialed —
// in the closed and the open loop alike, and the shared translation
// refuses a store Add instead of indexing past its opcode table.
func TestRunRejectsMixWithAdds(t *testing.T) {
	_, _, pipe := pipeDialer(t, server.Options{})
	dials := 0
	dial := func() (net.Conn, error) { dials++; return pipe() }
	for _, rate := range []float64{0, 2000} {
		_, err := client.Run(dial, client.Spec{Spec: workload.Spec{
			Mix: "g", Records: 64, Depth: 4, Duration: 50 * time.Millisecond,
		}, Rate: rate})
		if err == nil || !strings.Contains(err.Error(), `"g"`) || dials != 0 {
			t.Fatalf("rate %v: mix g ran over the wire: err %v after %d dials", rate, err, dials)
		}
	}
	if _, err := server.WireRequest(store.Op[[]byte]{Kind: store.OpAdd, Key: []byte("k")}); err == nil {
		t.Fatal("a store Add translated to a wire request")
	}
}

// TestResultJSONKeys pins flitload -json's key set: every field filled,
// so no omitempty key hides.
func TestResultJSONKeys(t *testing.T) {
	var res client.Result
	fill(reflect.ValueOf(&res).Elem())
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"conns", "depth", "dist", "dropped", "elapsed_ns", "inserts", "max_ns", "mix",
		"ops", "ops_per_batch", "ops_per_sec", "p50_ns", "p95_ns", "p99_ns",
		"pfences", "pfences_elided", "pfences_per_op", "pwbs", "pwbs_per_op",
		"rate", "reads", "rmws", "scans", "server_batches", "server_commit_p99_ns",
		"server_op_max_ns", "server_ops", "server_p50_ns", "server_p95_ns",
		"server_p99_ns", "server_shed", "shed", "shed_rate", "updates",
	}
	if got := slices.Sorted(maps.Keys(m)); !slices.Equal(got, want) {
		t.Fatalf("flitload -json keys\n got %q\nwant %q", got, want)
	}
}

// fill sets every field of the struct v, embedded structs' included, to
// a non-zero value.
func fill(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Struct:
			fill(f)
		case reflect.String:
			f.SetString("x")
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Uint64:
			f.SetUint(1)
		case reflect.Float64:
			f.SetFloat(1)
		}
	}
}
