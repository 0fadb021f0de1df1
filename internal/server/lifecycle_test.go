package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"flit/internal/core"
	"flit/internal/metrics"
	"flit/internal/pmem"
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
	return checkAccount(t, st)
}

// combinerOnly is the resource account of a store whose combiner is built
// and idle: its own session's one thread, one arena and one handle.
var combinerOnly = store.Resources{Threads: 1, Arenas: 1, Handles: 1}

// checkAccount registers a cleanup that fails tb unless st's resource
// account is back at combinerOnly. A handler withdraws its combiner slot
// after its peer hangs up, so open slots get a few seconds to drain.
// Every connection is a Combined session, so the cleanup first builds
// the combiner if no connection did; a crashed combiner refuses the
// session, and exists.
func checkAccount(tb testing.TB, st *store.Store) *store.Store {
	tb.Cleanup(func() {
		pmem.RunToCrash(func() { store.Open[[]byte](st, store.Combined).Close() })
		got := st.Resources()
		for deadline := time.Now().Add(5 * time.Second); got.CombinedSessions > 0 && time.Now().Before(deadline); got = st.Resources() {
			time.Sleep(time.Millisecond)
		}
		if got != combinerOnly {
			tb.Errorf("resource account at cleanup: %+v, want %+v", got, combinerOnly)
		}
	})
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

// serveOne serves a fresh pipe connection on s and returns its client end
// and a channel closed when the handler has returned.
func serveOne(s *Server) (net.Conn, chan struct{}) {
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() { s.ServeConn(sc); close(done) }()
	return cc, done
}

// fillHeap puts fresh keys through cc until the store's heap runs out,
// which kills the connection: the Put that found no memory is never
// answered. It returns how many Puts were answered.
func fillHeap(t *testing.T, cc net.Conn) int {
	t.Helper()
	for i := 0; i < 1<<16; i++ {
		key := []byte(fmt.Sprintf("fill-%d", i))
		if _, err := lifecycleRoundTrip(cc, &Request{Op: OpPut, Key: key, Val: uint64(i)}); err != nil {
			return i
		}
	}
	t.Fatal("the heap never ran out")
	return 0
}

// newFullableStore is a one-shard store whose heap runs out after a few
// thousand fresh keys.
func newFullableStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.New(store.Options{
		Shards: 1, ExpectedKeys: 1 << 8, Policy: core.PolicyHT,
		HTBytes: 1 << 14, VirtualClock: true, MemWords: 1 << 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	return checkAccount(t, st)
}

// TestRepeatedPanicsNoResourceGrowth: connections that die of a panic in
// their window withdraw their combiner slot like any other, so the store's
// resource account does not grow with the panic count.
func TestRepeatedPanicsNoResourceGrowth(t *testing.T) {
	const panics = 20
	t.Run("full-heap", func(t *testing.T) {
		// Each connection's first fresh-key Put finds the heap full and
		// panics; the window hands the panic to that connection alone.
		st := newFullableStore(t)
		s := New(st, Options{})
		cc, done := serveOne(s)
		fillHeap(t, cc)
		cc.Close()
		<-done
		before := st.Resources()
		for i := 0; i < panics; i++ {
			cc, done := serveOne(s)
			if resp, err := lifecycleRoundTrip(cc, &Request{Op: OpPut, Key: []byte(fmt.Sprintf("over-%d", i)), Val: 1}); err == nil {
				t.Fatalf("cycle %d: a Put past the full heap was answered: %+v", i, resp)
			}
			cc.Close()
			<-done
		}
		if got := s.connErrs[causePanic].Load(); got != panics+1 {
			t.Fatalf("connErrs[panic] = %d, want %d", got, panics+1)
		}
		if r := st.Resources(); r != before {
			t.Fatalf("after %d panics: %+v; want %+v", panics, r, before)
		}
		// The store is live: an in-place Put allocates nothing.
		cc, done = serveOne(s)
		if resp, err := lifecycleRoundTrip(cc, &Request{Op: OpPut, Key: []byte("fill-0"), Val: 7}); err != nil || resp.Status != StatusOK {
			t.Fatalf("in-place put after the panics = %+v, %v; want StatusOK", resp, err)
		}
		cc.Close()
		<-done
	})
	t.Run("crash", func(t *testing.T) {
		// After a crash every new connection fails as it opens its
		// session, inside ServeConn's recover, and holds nothing after.
		st := newLifecycleStore(t)
		s := New(st, Options{})
		cc, done := serveOne(s)
		if _, err := lifecycleRoundTrip(cc, &Request{Op: OpPut, Key: []byte("warm"), Val: 1}); err != nil {
			t.Fatal(err)
		}
		for _, th := range st.Mem().Threads() { // the combiner's, by now
			th.SetCrashAfter(3)
		}
		if resp, err := lifecycleRoundTrip(cc, &Request{Op: OpPut, Key: []byte("boom"), Val: 1}); err == nil {
			t.Fatalf("the op that crashed was answered: %+v", resp)
		}
		cc.Close()
		<-done
		before := st.Resources()
		for i := 0; i < panics; i++ {
			cc, done := serveOne(s)
			if resp, err := lifecycleRoundTrip(cc, &Request{Op: OpGet, Key: []byte("boom")}); err == nil {
				t.Fatalf("cycle %d: a crashed store answered: %+v", i, resp)
			}
			cc.Close()
			<-done
		}
		if got := s.connErrs[causePanic].Load(); got != panics+1 {
			t.Fatalf("connErrs[panic] = %d, want %d", got, panics+1)
		}
		if r := st.Resources(); r != before {
			t.Fatalf("after %d connections to a crashed store: %+v; want %+v", panics, r, before)
		}
	})
}

// churnServer is a server on a fresh store whose combiner (and its one
// session) a first connection has already built. check fails the test
// unless the store's resource account is back where it was then: a
// connection holds one combiner slot and no thread, arena or handle.
func churnServer(t *testing.T) (s *Server, put func(cc net.Conn, i int), check func(when string)) {
	t.Helper()
	st := newLifecycleStore(t)
	s = New(st, Options{})
	put = func(cc net.Conn, i int) {
		if resp, err := lifecycleRoundTrip(cc, &Request{Op: OpPut, Key: []byte{'c', byte(i)}, Val: uint64(i)}); err != nil || resp.Status != StatusOK {
			t.Errorf("connection %d: put = %+v, %v", i, resp, err)
		}
	}
	cc, done := serveOne(s)
	put(cc, 0)
	cc.Close()
	<-done
	before := st.Resources()
	check = func(when string) {
		t.Helper()
		if r := st.Resources(); r != before {
			t.Fatalf("%s: %+v; want %+v", when, r, before)
		}
	}
	return s, put, check
}

// TestConnectionChurnReusesSessions: serial connect→op→disconnect cycles
// all run in the store combiner's one session, so each cycle withdraws
// the slot it took and no cycle adds a pmem thread.
func TestConnectionChurnReusesSessions(t *testing.T) {
	s, put, check := churnServer(t)
	for i := 0; i < 50; i++ {
		cc, done := serveOne(s)
		put(cc, i)
		cc.Close()
		<-done
	}
	check("after 50 serial connections")
}

// TestConnectionChurnThreadsBounded: concurrent churn leaves the slot
// registry and the pmem thread count where they started, however many
// connections overlapped.
func TestConnectionChurnThreadsBounded(t *testing.T) {
	s, put, check := churnServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				cc, done := serveOne(s)
				put(cc, 10*i+j)
				cc.Close()
				<-done
			}
		}()
	}
	wg.Wait()
	check("after 8x10 concurrent connections")
}

// TestServerCloseDrainsPool: Close cuts every live connection, and each
// handler withdraws its combiner slot on the way out, so the slot
// registry drains back to where it was before they opened.
func TestServerCloseDrainsPool(t *testing.T) {
	s, put, check := churnServer(t)
	open := s.Store().Resources()
	open.CombinedSessions += 4
	var live []chan struct{}
	for i := 0; i < 4; i++ {
		cc, done := serveOne(s)
		put(cc, i)
		defer cc.Close()
		live = append(live, done)
	}
	if r := s.Store().Resources(); r != open {
		t.Fatalf("4 open connections: %+v, want %+v", r, open)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, done := range live {
		<-done
	}
	check("after Close")
}

// TestBatcherDirect drives the batch executor without a transport — the
// path the crash batteries enumerate.
func TestBatcherDirect(t *testing.T) {
	st := newLifecycleStore(t)
	srv := New(st, Options{})
	b := srv.NewBatcher()
	defer b.Close()
	reqs := []Request{
		{Op: OpPut, Key: []byte("x"), Val: 1},
		{Op: OpPut, Key: []byte("y"), Val: 2},
		{Op: OpGet, Key: []byte("x")},
		{Op: OpPing},
		{Op: OpDelete, Key: []byte("y")},
	}
	resps := make([]Response, len(reqs))
	opsHist, _ := st.WindowHists()
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
	var ops metrics.HistSnapshot
	opsHist.Read(&ops)
	if ops.Count != 1 || ops.Sum != 4 {
		t.Fatalf("Exec ran %d windows acknowledging %d ops, want the batch's 4 store ops in one", ops.Count, ops.Sum)
	}
	if n, ok := core.LiveTagCount(st.Policy()); !ok || n != 0 {
		t.Fatalf("live tags after Exec = %d, want 0", n)
	}
}
