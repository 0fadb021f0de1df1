package server

import (
	"bufio"
	"net"
	"testing"

	"flit/internal/core"
	"flit/internal/store"
)

func newLifecycleStore(t *testing.T) *store.Store {
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

func lifecycleRoundTrip(cc net.Conn, req *Request) (Response, error) {
	var resp Response
	if _, err := cc.Write(AppendRequest(nil, req)); err != nil {
		return resp, err
	}
	err := ReadResponse(bufio.NewReader(cc), req.Op, &resp)
	return resp, err
}

// TestRepeatedPanicsNoResourceGrowth is the poisoned-batcher leak
// regression test: N connections in a row each trip an injected crash
// panic mid-operation. Every poisoned batcher must be closed — its pmem
// thread, arena and reclamation handles released — so the thread
// registry ends where it started instead of growing by one session per
// panic.
func TestRepeatedPanicsNoResourceGrowth(t *testing.T) {
	st := newLifecycleStore(t)
	s := New(st, Options{})
	base := len(st.Mem().Threads())

	const panics = 20
	for i := 0; i < panics; i++ {
		armed := s.NewBatcher()
		armed.bs.Thread().SetCrashAfter(3)
		s.putBatcher(armed)

		cc, sc := net.Pipe()
		done := make(chan struct{})
		go func() { s.ServeConn(sc); close(done) }()
		if resp, err := lifecycleRoundTrip(cc, &Request{Op: OpPut, Key: []byte("boom"), Val: 1}); err == nil {
			t.Fatalf("cycle %d: op on crashing conn was answered: %+v", i, resp)
		}
		cc.Close()
		<-done
	}

	if got := s.connErrs[causePanic].Load(); got != panics {
		t.Fatalf("connErrs[panic] = %d, want %d", got, panics)
	}
	// Crashed pmem threads cannot be reused (their slot is retired), so
	// the registry may not shrink to exactly base — but it must not grow
	// with the panic count beyond those dead slots plus the live pool.
	if n := len(st.Mem().Threads()); n > base+panics {
		t.Fatalf("thread registry grew past the crashed sessions: %d live, base %d, %d panics", n, base, panics)
	}

	// The server still works, and a healthy churn after the panic storm
	// stays flat.
	after := len(st.Mem().Threads())
	for i := 0; i < 10; i++ {
		cc, sc := net.Pipe()
		done := make(chan struct{})
		go func() { s.ServeConn(sc); close(done) }()
		if resp, err := lifecycleRoundTrip(cc, &Request{Op: OpPut, Key: []byte("alive"), Val: uint64(i)}); err != nil || resp.Status != StatusOK {
			t.Fatalf("post-panic put = %+v, %v; want StatusOK", resp, err)
		}
		cc.Close()
		<-done
	}
	if n := len(st.Mem().Threads()); n > after+1 {
		t.Fatalf("healthy churn after panics grew threads: %d live, was %d", n, after)
	}
}

// TestConnectionChurnThreadsBounded: N sequential connect→op→disconnect
// cycles reuse pooled batcher sessions, so the live pmem thread count
// stays bounded by the pool high-water mark (one here), not the
// connection count.
func TestConnectionChurnThreadsBounded(t *testing.T) {
	st := newLifecycleStore(t)
	s := New(st, Options{})
	base := len(st.Mem().Threads())

	const cycles = 50
	for i := 0; i < cycles; i++ {
		cc, sc := net.Pipe()
		done := make(chan struct{})
		go func() { s.ServeConn(sc); close(done) }()
		if resp, err := lifecycleRoundTrip(cc, &Request{Op: OpPut, Key: []byte("churn"), Val: uint64(i)}); err != nil || resp.Status != StatusOK {
			t.Fatalf("cycle %d: put = %+v, %v", i, resp, err)
		}
		cc.Close()
		<-done
	}
	if n := len(st.Mem().Threads()); n > base+1 {
		t.Fatalf("connection churn leaked threads: %d live after %d cycles, base %d", n, cycles, base)
	}
}

// TestServerCloseDrainsPool: Close must release every pooled batcher's
// session resources, returning the thread registry to its pre-server
// state.
func TestServerCloseDrainsPool(t *testing.T) {
	st := newLifecycleStore(t)
	base := len(st.Mem().Threads())
	s := New(st, Options{})

	for i := 0; i < 4; i++ {
		s.putBatcher(s.NewBatcher())
	}
	if n := len(st.Mem().Threads()); n != base+4 {
		t.Fatalf("pool setup: %d threads, want %d", n, base+4)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(st.Mem().Threads()); n != base {
		t.Fatalf("Close left %d threads live, want %d (pool not drained)", n, base)
	}
	// A batcher returned after Close is closed, not pooled.
	late := s.NewBatcher()
	s.putBatcher(late)
	if n := len(st.Mem().Threads()); n != base {
		t.Fatalf("post-Close putBatcher parked a session: %d threads, want %d", n, base)
	}
}

// TestBatcherDirect drives the batch executor without a transport — the
// path the crash batteries enumerate.
func TestBatcherDirect(t *testing.T) {
	st := newLifecycleStore(t)
	srv := New(st, Options{})
	b := srv.NewBatcher()
	reqs := []Request{
		{Op: OpPut, Key: []byte("x"), Val: 1},
		{Op: OpPut, Key: []byte("y"), Val: 2},
		{Op: OpGet, Key: []byte("x")},
		{Op: OpPing},
		{Op: OpDelete, Key: []byte("y")},
	}
	resps := make([]Response, len(reqs))
	b.Exec(reqs, resps)
	if !resps[0].Flag || !resps[1].Flag {
		t.Fatal("puts did not insert")
	}
	if resps[2].Status != StatusOK || resps[2].Val != 1 {
		t.Fatalf("get = %+v", resps[2])
	}
	if resps[3].Status != StatusOK {
		t.Fatalf("ping = %+v", resps[3])
	}
	if !resps[4].Flag {
		t.Fatal("delete missed")
	}
	if b.bs.Pending() != 0 {
		t.Fatal("Exec left the batch uncommitted")
	}
	if n, ok := core.LiveTagCount(st.Policy()); !ok || n != 0 {
		t.Fatalf("live tags after Exec = %d, want 0", n)
	}
}
