package client_test

import (
	"bufio"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"flit/internal/client"
	"flit/internal/server"
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
