package client_test

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"flit/internal/client"
	"flit/internal/core"
	"flit/internal/resilience"
	"flit/internal/server"
	"flit/internal/store"
	"flit/internal/workload"
)

// TestConnServerClosesMidPipeline pins the short-read path: the server
// answers part of a pipeline and hangs up. The client must surface a
// typed *PipelineError carrying the outstanding count — never a panic
// or a hang.
func TestConnServerClosesMidPipeline(t *testing.T) {
	cc, sc := net.Pipe()
	// A hand-rolled server that answers exactly 2 requests, then closes.
	go func() {
		br := bufio.NewReader(sc)
		var req server.Request
		for i := 0; i < 2; i++ {
			if err := server.ReadRequest(br, &req); err != nil {
				break
			}
			resp := server.Response{Status: server.StatusOK}
			sc.Write(server.AppendResponse(nil, req.Op, &resp))
		}
		sc.Close()
	}()

	c := client.New(cc)
	defer c.Close()
	c.SetOpTimeout(2 * time.Second)
	for i := 0; i < 5; i++ {
		c.Send(&server.Request{Op: server.OpPut, Key: []byte{byte(i)}, Val: 1})
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Recv(); err != nil {
			t.Fatalf("recv %d before the hangup: %v", i, err)
		}
	}
	_, err := c.Recv()
	var pe *client.PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("recv after hangup = %v, want *PipelineError", err)
	}
	if pe.Pending != 3 {
		t.Fatalf("PipelineError.Pending = %d, want 3", pe.Pending)
	}
	if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("PipelineError should unwrap to an EOF, got %v", pe.Err)
	}
}

// window is n store ops: Puts and Gets on keys k0..k(n/2-1).
func window(n int) []store.Op[[]byte] {
	ops := make([]store.Op[[]byte], n)
	for i := range ops {
		ops[i] = store.Op[[]byte]{Kind: store.OpPut, Key: fmt.Appendf(nil, "k%d", i/2), Val: uint64(i)}
		if i%2 == 1 {
			ops[i].Kind = store.OpGet
		}
	}
	return ops
}

// execWindow runs ops through a ConnExec over nc.
func execWindow(t *testing.T, nc net.Conn, ops []store.Op[[]byte]) ([]store.Result, []bool, int, error) {
	t.Helper()
	res, shed := make([]store.Result, len(ops)), make([]bool, len(ops))
	c := client.New(nc)
	defer c.Close()
	c.SetOpTimeout(2 * time.Second)
	answered, err := client.ConnExec{C: c}.ExecBatch(ops, res, shed)
	return res, shed, answered, err
}

// servePipe serves one net.Pipe connection from a fresh store's server.
func servePipe(t *testing.T, opts server.Options) net.Conn {
	t.Helper()
	st, err := store.New(store.Options{Shards: 4, ExpectedKeys: 1 << 10, Policy: core.PolicyHT, HTBytes: 1 << 14, VirtualClock: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(st, opts)
	t.Cleanup(func() { srv.Close() })
	cc, sc := net.Pipe()
	go srv.ServeConn(sc)
	return cc
}

// TestConnExecAnswersBeforeReset: a connection reset mid-window returns
// how many ops got an answer, and those answers are what a fault-free
// connection answers.
func TestConnExecAnswersBeforeReset(t *testing.T) {
	ops := window(16)
	want, _, answered, err := execWindow(t, servePipe(t, server.Options{MaxBatch: 4}), ops)
	if answered != len(ops) || err != nil {
		t.Fatalf("fault-free window: %d of %d answered: %v", answered, len(ops), err)
	}
	// The requests cross whole; the reset trips on the first response
	// batch (MaxBatch 4), which is delivered, and fails the next read.
	reqBytes := 0
	for _, op := range ops {
		req, _ := server.WireRequest(op)
		reqBytes += len(server.AppendRequest(nil, &req))
	}
	nc := resilience.WrapConn(servePipe(t, server.Options{MaxBatch: 4}), resilience.Faults{ResetAfterBytes: int64(reqBytes) + 1})
	got, _, answered, err := execWindow(t, nc, ops)
	if answered == 0 || answered >= len(ops) || !errors.Is(err, resilience.ErrInjectedReset) {
		t.Fatalf("reset window: %d of %d answered: %v", answered, len(ops), err)
	}
	if !reflect.DeepEqual(got[:answered], want[:answered]) {
		t.Fatalf("answered %v before the reset, a fault-free run %v", got[:answered], want[:answered])
	}
}

// TestConnExecRejections: BUSY marks every op shed; DRAINING also ends
// the worker with workload.ErrDraining. Both answer every op.
func TestConnExecRejections(t *testing.T) {
	for _, tc := range []struct {
		status byte
		err    error
	}{{server.StatusBusy, nil}, {server.StatusDraining, workload.ErrDraining}} {
		cc, sc := net.Pipe()
		go func() { // answers every request with tc.status
			defer sc.Close()
			br := bufio.NewReader(sc)
			var req server.Request
			for server.ReadRequest(br, &req) == nil {
				resp := server.Response{Status: tc.status}
				sc.Write(server.AppendResponse(nil, req.Op, &resp))
			}
		}()
		_, shed, answered, err := execWindow(t, cc, window(6))
		if answered != 6 || err != tc.err || slices.Contains(shed, false) {
			t.Fatalf("status %d: %d of 6 answered, shed %v: %v", tc.status, answered, shed, err)
		}
	}
}
