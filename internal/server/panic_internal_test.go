package server

import (
	"bufio"
	"net"
	"testing"

	"flit/internal/core"
	"flit/internal/store"
)

// TestServeConnPanicIsolation injects a crash panic into the batcher a
// connection will pick up and proves the blast radius is that one
// connection: the panic is recovered, counted under cause=panic, the
// batcher's session is cleaned up, and the server keeps serving new
// connections.
func TestServeConnPanicIsolation(t *testing.T) {
	st, err := store.New(store.Options{
		Shards: 4, ExpectedKeys: 1 << 10, Policy: core.PolicyHT,
		HTBytes: 1 << 14, VirtualClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(st, Options{})

	// Arm the pooled batcher: the next connection's first Exec trips the
	// injected crash a few instrumented instructions in.
	armed := s.NewBatcher()
	armed.bs.Thread().SetCrashAfter(3)
	s.putBatcher(armed)

	roundTrip := func(cc net.Conn, req *Request) (Response, error) {
		var resp Response
		if _, err := cc.Write(AppendRequest(nil, req)); err != nil {
			return resp, err
		}
		err := ReadResponse(bufio.NewReader(cc), req.Op, &resp)
		return resp, err
	}

	cc1, sc1 := net.Pipe()
	done := make(chan struct{})
	go func() { s.ServeConn(sc1); close(done) }()
	// The put panics mid-execution; the client sees the conn die, never
	// an ack.
	if resp, err := roundTrip(cc1, &Request{Op: OpPut, Key: []byte("boom"), Val: 1}); err == nil {
		t.Fatalf("op on crashing conn was answered: %+v", resp)
	}
	cc1.Close()
	<-done

	if got := s.connErrs[causePanic].Load(); got != 1 {
		t.Fatalf("connErrs[panic] = %d, want 1", got)
	}
	// The process survived and a fresh connection serves normally.
	cc2, sc2 := net.Pipe()
	go s.ServeConn(sc2)
	defer cc2.Close()
	resp, err := roundTrip(cc2, &Request{Op: OpPut, Key: []byte("alive"), Val: 7})
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("post-panic put = %+v, %v; want StatusOK", resp, err)
	}
}
