package server_test

import (
	"bufio"
	"io"
	"net"
	"strings"
	"testing"

	"flit/internal/client"
	"flit/internal/core"
	"flit/internal/pmem"
	"flit/internal/server"
	"flit/internal/store"
)

func newTestStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.New(store.Options{
		Shards: 4, ExpectedKeys: 1 << 10, Policy: core.PolicyHT,
		HTBytes: 1 << 14, VirtualClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// pipeServer starts a server over an in-process pipe and returns a
// connected client.
func pipeServer(t *testing.T, st *store.Store, opts server.Options) (*server.Server, *client.Conn) {
	t.Helper()
	srv := server.New(st, opts)
	cc, sc := net.Pipe()
	go srv.ServeConn(sc)
	c := client.New(cc)
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// TestServerRoundTrips covers every opcode through the synchronous
// client API.
func TestServerRoundTrips(t *testing.T) {
	_, c := pipeServer(t, newTestStore(t), server.Options{})

	if ins, err := c.Put([]byte("alpha"), 41); err != nil || !ins {
		t.Fatalf("Put = %v,%v want true,nil", ins, err)
	}
	if ins, err := c.Put([]byte("alpha"), 42); err != nil || ins {
		t.Fatalf("overwrite Put = %v,%v want false,nil", ins, err)
	}
	if v, ok, err := c.Get([]byte("alpha")); err != nil || !ok || v != 42 {
		t.Fatalf("Get = %d,%v,%v want 42,true,nil", v, ok, err)
	}
	if _, ok, err := c.Get([]byte("ghost")); err != nil || ok {
		t.Fatalf("Get(ghost) = %v,%v want false,nil", ok, err)
	}
	if present, err := c.Contains([]byte("alpha")); err != nil || !present {
		t.Fatalf("Contains = %v,%v want true,nil", present, err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if existed, err := c.Delete([]byte("alpha")); err != nil || !existed {
		t.Fatalf("Delete = %v,%v want true,nil", existed, err)
	}
	if existed, err := c.Delete([]byte("alpha")); err != nil || existed {
		t.Fatalf("re-Delete = %v,%v want false,nil", existed, err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.OpsServed != 7 || stats.Batches == 0 || stats.Shards != 4 {
		t.Fatalf("Stats = %+v: want 7 ops served over >0 batches on 4 shards", stats)
	}
}

// TestServerPipelineBatches: a flushed pipeline window executes as one
// group commit, and responses come back in request order.
func TestServerPipelineBatches(t *testing.T) {
	srv, c := pipeServer(t, newTestStore(t), server.Options{})

	const n = 16
	var keys [n][2]byte
	for i := 0; i < n; i++ {
		keys[i] = [2]byte{'k', byte(i)}
		c.Send(&server.Request{Op: server.OpPut, Key: keys[i][:], Val: uint64(100 + i)})
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		resp, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Flag {
			t.Fatalf("pipelined Put %d reported existing key", i)
		}
	}
	// Read them back pipelined; response order must match request order.
	for i := 0; i < n; i++ {
		c.Send(&server.Request{Op: server.OpGet, Key: keys[i][:]})
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		resp, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != server.StatusOK || resp.Val != uint64(100+i) {
			t.Fatalf("pipelined Get %d = status %d val %d", i, resp.Status, resp.Val)
		}
	}
	stats := srv.Stats()
	if stats.OpsServed != 2*n {
		t.Fatalf("served %d ops, want %d", stats.OpsServed, 2*n)
	}
	if stats.Batches >= 2*n {
		t.Fatalf("%d batches for %d pipelined ops: no batching happened", stats.Batches, 2*n)
	}
}

// TestServerSameKeyPipelineOrder: same-key requests in one pipeline
// window keep program order: the window executes in pipeline order.
func TestServerSameKeyPipelineOrder(t *testing.T) {
	_, c := pipeServer(t, newTestStore(t), server.Options{})
	key := []byte("hot")
	c.Send(&server.Request{Op: server.OpPut, Key: key, Val: 1})
	c.Send(&server.Request{Op: server.OpGet, Key: key})
	c.Send(&server.Request{Op: server.OpPut, Key: key, Val: 2})
	c.Send(&server.Request{Op: server.OpGet, Key: key})
	c.Send(&server.Request{Op: server.OpDelete, Key: key})
	c.Send(&server.Request{Op: server.OpContains, Key: key})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		val  uint64
		flag bool
	}{{0, true}, {1, false}, {0, false}, {2, false}, {0, true}, {0, false}}
	for i, w := range want {
		resp, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Val != w.val || resp.Flag != w.flag {
			t.Fatalf("frame %d: val=%d flag=%v, want val=%d flag=%v", i, resp.Val, resp.Flag, w.val, w.flag)
		}
	}
}

// TestServerAckImpliesPersisted: everything acknowledged over the wire
// survives a DropUnfenced crash — the protocol-level durable rule.
func TestServerAckImpliesPersisted(t *testing.T) {
	st := newTestStore(t)
	_, c := pipeServer(t, st, server.Options{})
	for i := 0; i < 32; i++ {
		key := [2]byte{'d', byte(i)}
		c.Send(&server.Request{Op: server.OpPut, Key: key[:], Val: uint64(i)})
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	// Every response frame has been read: the ops are acknowledged.
	img := st.Mem().CrashImage(pmem.DropUnfenced, 7)
	st2, _, err := store.Recover(pmem.NewFromImage(img, st.Mem().Config()), st.Heap().Watermark(), st.Opts())
	if err != nil {
		t.Fatal(err)
	}
	sess := store.Open[[]byte](st2, store.Direct)
	for i := 0; i < 32; i++ {
		key := [2]byte{'d', byte(i)}
		if v, ok := sess.Get(key[:]); !ok || v != uint64(i) {
			t.Fatalf("acknowledged key %d lost across crash (got %d,%v)", i, v, ok)
		}
	}
}

// TestServerOverTCP exercises a real listener end to end, including
// Close unblocking Serve.
func TestServerOverTCP(t *testing.T) {
	st := newTestStore(t)
	srv := server.New(st, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := client.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put([]byte("tcp-key"), 9); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get([]byte("tcp-key")); err != nil || !ok || v != 9 {
		t.Fatalf("Get over TCP = %d,%v,%v", v, ok, err)
	}
	c.Close()
	srv.Close()
	if err := <-done; err != server.ErrClosed {
		t.Fatalf("Serve returned %v, want ErrClosed", err)
	}
}

// TestBatcherStatsSurviveResetStats: every workload.Run zeroes the
// memory's per-thread counters (pmem.Memory.ResetStats) under whatever
// batchers the server has pooled. A batcher that remembered its thread's
// counters across batches would then fold a ~2^64 "delta" into the server
// totals; the published counts must instead stay the instructions
// actually issued.
func TestBatcherStatsSurviveResetStats(t *testing.T) {
	st := newTestStore(t)
	srv := server.New(st, server.Options{Metrics: true})
	b := srv.NewBatcher()
	resps := make([]server.Response, 2)
	for i := 0; i < 3; i++ {
		b.Exec([]server.Request{
			{Op: server.OpPut, Key: []byte("a"), Val: uint64(i)},
			{Op: server.OpPut, Key: []byte("b"), Val: uint64(i)},
		}, resps)
	}
	before := srv.Stats()
	if before.PFences == 0 || before.PWBs == 0 {
		t.Fatalf("three committed batches published no instructions: %+v", before)
	}

	st.Mem().ResetStats()
	b.Exec([]server.Request{{Op: server.OpPut, Key: []byte("a"), Val: 9}}, resps[:1])
	issued := st.Mem().TotalStats() // since the reset: the last batch alone
	after := srv.Stats()
	if got := after.PFences - before.PFences; got != issued.PFences {
		t.Fatalf("Stats().PFences grew by %d across the reset, %d fences were issued", got, issued.PFences)
	}
	if got := after.PWBs - before.PWBs; got != issued.PWBs {
		t.Fatalf("Stats().PWBs grew by %d across the reset, %d PWBs were issued", got, issued.PWBs)
	}
	if mean := after.Metrics.FencesPerBatchMean; mean > float64(before.PFences) {
		t.Fatalf("fences-per-batch mean %g: a batch recorded an underflowed fence count", mean)
	}
}

// TestStatsConcurrentWithTraffic: STATS is a monitoring poll and must be
// safe while other connections execute batches (run under -race in the
// nightly suite — the server publishes batcher-thread deltas into
// atomics rather than walking live per-thread counters).
func TestStatsConcurrentWithTraffic(t *testing.T) {
	st := newTestStore(t)
	srv := server.New(st, server.Options{})
	mk := func() *client.Conn {
		cc, sc := net.Pipe()
		go srv.ServeConn(sc)
		c := client.New(cc)
		t.Cleanup(func() { c.Close() })
		return c
	}
	traffic, monitor := mk(), mk()

	done := make(chan struct{})
	go func() {
		defer close(done)
		key := make([]byte, 2)
		for i := 0; i < 200; i++ {
			key[0], key[1] = byte(i), byte(i>>8)
			for j := 0; j < 8; j++ {
				traffic.Send(&server.Request{Op: server.OpPut, Key: key, Val: uint64(j)})
			}
			if err := traffic.Flush(); err != nil {
				return
			}
			for j := 0; j < 8; j++ {
				if _, err := traffic.Recv(); err != nil {
					return
				}
			}
		}
	}()
	var last server.Stats
	for i := 0; ; i++ {
		stats, err := monitor.Stats()
		if err != nil {
			t.Fatalf("Stats poll %d: %v", i, err)
		}
		if stats.OpsServed < last.OpsServed || stats.PWBs < last.PWBs || stats.PFences < last.PFences {
			t.Fatalf("server counters went backwards: %+v after %+v", stats, last)
		}
		last = stats
		select {
		case <-done:
			final, err := monitor.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if final.OpsServed != 1600 {
				t.Fatalf("served %d ops, want 1600", final.OpsServed)
			}
			if final.PWBs == 0 || final.PFences == 0 {
				t.Fatalf("request execution published no instruction counts: %+v", final)
			}
			return
		default:
		}
	}
}

// TestServerMalformedRequestGetsErrorFrame: an unknown opcode draws a
// best-effort StatusErr diagnostic frame before the connection closes —
// the protocol's documented malformed-request behavior.
func TestServerMalformedRequestGetsErrorFrame(t *testing.T) {
	srv := server.New(newTestStore(t), server.Options{})
	cc, sc := net.Pipe()
	go srv.ServeConn(sc)
	defer cc.Close()
	// Frame: payload length 1, opcode 99 (unknown).
	if _, err := cc.Write([]byte{1, 0, 0, 0, 99}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(cc)
	var resp server.Response
	if err := server.ReadResponse(br, 0, &resp); err != nil {
		t.Fatalf("no error frame before close: %v", err)
	}
	if resp.Status != server.StatusErr || !strings.Contains(string(resp.Body), "opcode") {
		t.Fatalf("error frame = %+v, want StatusErr naming the opcode", resp)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection stayed open after protocol error (err=%v)", err)
	}
}

// TestConnectionChurnReusesSessions: pmem threads (and their arenas and
// reclamation slots) cannot be unregistered, so the server pools its
// batch executors — serial connection churn must not grow the thread
// registry past the peak concurrency.
func TestConnectionChurnReusesSessions(t *testing.T) {
	st := newTestStore(t)
	srv := server.New(st, server.Options{})
	base := len(st.Mem().Threads()) // store construction registers its own
	for i := 0; i < 20; i++ {
		cc, sc := net.Pipe()
		done := make(chan struct{})
		go func() { srv.ServeConn(sc); close(done) }()
		c := client.New(cc)
		if _, err := c.Put([]byte{'c', byte(i)}, uint64(i)); err != nil {
			t.Fatal(err)
		}
		c.Close()
		<-done // batcher returned to the pool before the next connection
	}
	if n := len(st.Mem().Threads()) - base; n > 2 {
		t.Fatalf("20 serial connections registered %d new pmem threads: sessions are leaking per connection", n)
	}
}
