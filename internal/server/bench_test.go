package server_test

import (
	"fmt"
	"sync"
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

// BenchmarkExecConnections runs 1 to 16 goroutines, each with its own
// Batcher (one connection's executor, socket-free), issuing depth-1
// in-place Puts on preloaded keys; b.N counts Puts over all goroutines.
// It reports ns/op and the exact fences/op and pwbs/op summed over every
// pmem thread: what sharing the store's commit windows saves as
// connections pile up. The idle=64 row runs one connection beside 64
// registered idle ones, the slots every window's sweep reads.
func BenchmarkExecConnections(b *testing.B) {
	const records = 1 << 12
	type shape struct{ conns, idle int }
	shapes := []shape{{1, 0}, {2, 0}, {4, 0}, {8, 0}, {16, 0}, {1, 64}}
	for _, sh := range shapes {
		name := fmt.Sprintf("conns=%d", sh.conns)
		if sh.idle > 0 {
			name += fmt.Sprintf(",idle=%d", sh.idle)
		}
		b.Run(name, func(b *testing.B) {
			st, err := store.New(store.Options{Shards: 8, ExpectedKeys: 2 * records, VirtualClock: true})
			if err != nil {
				b.Fatal(err)
			}
			workload.Load(st, records, 1)
			srv := server.New(st, server.Options{})
			defer srv.Close()
			for range sh.idle {
				defer srv.NewBatcher().Close()
			}
			keys := make([][]byte, records)
			for i := range keys {
				keys[i] = workload.AppendKey(nil, uint64(i))
			}
			bts := make([]*server.Batcher, sh.conns)
			for w := range bts {
				bts[w] = srv.NewBatcher()
				defer bts[w].Close()
			}
			before := st.Mem().TotalStats()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w, bt := range bts {
				wg.Add(1)
				go func() {
					defer wg.Done()
					req := make([]server.Request, 1)
					resp := make([]server.Response, 1)
					for i := uint64(w); i < uint64(b.N); i += uint64(sh.conns) {
						req[0] = server.Request{Op: server.OpPut, Key: keys[(i*2654435761)&(records-1)], Val: i}
						bt.Exec(req, resp)
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			after := st.Mem().TotalStats()
			b.ReportMetric(float64(after.PFences-before.PFences)/float64(b.N), "fences/op")
			b.ReportMetric(float64(after.PWBs-before.PWBs)/float64(b.N), "pwbs/op")
		})
	}
}
