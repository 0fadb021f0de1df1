package server_test

import (
	"testing"

	"flit/internal/core"
	"flit/internal/server"
	"flit/internal/store"
	"flit/internal/workload"
)

// benchExec measures the batch executor on a depth-16 mixed window,
// with and without the metrics bundle — the difference is the
// observability tax on the hot path (a few atomic adds and one
// time.Now per op).
func benchExec(b *testing.B, metricsOn bool) {
	st, err := store.New(store.Options{
		Shards: 4, ExpectedKeys: 1 << 12, Policy: core.PolicyHT,
		HTBytes: 1 << 16, VirtualClock: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(st, server.Options{Metrics: metricsOn})
	defer srv.Close()
	bt := srv.NewBatcher()

	const depth = 16
	reqs := make([]server.Request, depth)
	resps := make([]server.Response, depth)
	for i := range reqs {
		key := workload.AppendKey(nil, uint64(i))
		if i%2 == 0 {
			reqs[i] = server.Request{Op: server.OpPut, Key: key, Val: uint64(i)}
		} else {
			reqs[i] = server.Request{Op: server.OpGet, Key: key}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Exec(reqs, resps)
	}
}

func BenchmarkServerExecMetricsOn(b *testing.B)  { benchExec(b, true) }
func BenchmarkServerExecMetricsOff(b *testing.B) { benchExec(b, false) }

// benchWire measures the whole wire path — client codec, unix socket,
// conn stages, Exec, group commit — in windows of depth pipelined
// requests, the net_d1 / net_d32 shape of benchmark/.
func benchWire(b *testing.B, depth int) {
	st, err := store.New(store.Options{
		Shards: 8, ExpectedKeys: 1 << 13, Policy: core.PolicyHT,
		HTBytes: 1 << 16, VirtualClock: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	c := unixServer(b, st)
	reqs := putGetWindow(depth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		for j := range reqs {
			c.Send(&reqs[j])
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
		for range reqs {
			if _, err := c.Recv(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkWireDepth1(b *testing.B)  { benchWire(b, 1) }
func BenchmarkWireDepth32(b *testing.B) { benchWire(b, 32) }
