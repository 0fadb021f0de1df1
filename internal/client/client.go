// Package client is the FliT-Store network client: a pipelining
// connection over the server's length-prefixed binary protocol, plus a
// load generator (loadgen.go) that drives the YCSB workload mixes
// through pipelined connections — the feeder the server's group-commit
// batching is designed for. Its closed loop is workload's shared driver
// with a connection as the executor; its open loop is its own.
package client

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"flit/internal/server"
)

// Conn is a client connection. Not safe for concurrent use: the
// pipelining discipline (Send*/Flush/Recv) is the caller's, one
// goroutine at a time — the load generator runs one Conn per worker.
type Conn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	// opTimeout bounds each Flush (write side) and each Recv (read
	// side) when non-zero; see SetOpTimeout.
	opTimeout time.Duration

	// inflight queues the opcodes of sent-but-unanswered requests;
	// responses decode against them in FIFO order.
	inflight []byte
	head     int
	resp     server.Response
}

// New wraps an established transport (TCP, unix socket, net.Pipe).
func New(c net.Conn) *Conn {
	return &Conn{
		c:  c,
		br: bufio.NewReaderSize(c, 64<<10),
		bw: bufio.NewWriterSize(c, 64<<10),
	}
}

// Dial connects to a flitstored server.
func Dial(network, addr string) (*Conn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return New(c), nil
}

// Close closes the transport.
func (c *Conn) Close() error { return c.c.Close() }

// SetOpTimeout bounds every subsequent Flush and Recv/RecvFor with a
// per-call deadline: a server that neither accepts writes nor produces
// a response within d fails the call with a timeout instead of hanging
// the caller forever. Zero disables (the default).
func (c *Conn) SetOpTimeout(d time.Duration) { c.opTimeout = d }

// Pending reports the sent-but-unanswered request count.
func (c *Conn) Pending() int { return len(c.inflight) - c.head }

// Send buffers one request frame without flushing; pipeline as many as
// the window wants, then Flush once so the server sees — and
// group-commits — the whole window.
func (c *Conn) Send(req *server.Request) {
	c.SendUntracked(req)
	c.inflight = append(c.inflight, req.Op)
}

// Flush pushes every buffered request to the transport.
func (c *Conn) Flush() error {
	if c.opTimeout > 0 {
		c.c.SetWriteDeadline(time.Now().Add(c.opTimeout))
	}
	return c.bw.Flush()
}

// Recv decodes the next pipelined response, in send order. The returned
// Response aliases internal buffers until the next Recv.
//
// A transport or decode failure comes back as a *PipelineError carrying
// the outstanding-response count — never a short-read panic or a hang
// (with an op timeout set): the pipeline's remaining responses are gone
// and the connection is unusable. BUSY and DRAINING responses are NOT
// errors at this layer; pipelining callers inspect resp.Status (the
// convenience methods map them to typed errors).
func (c *Conn) Recv() (*server.Response, error) {
	if c.head == len(c.inflight) {
		return nil, fmt.Errorf("client: Recv with no request in flight")
	}
	op := c.inflight[c.head]
	if c.opTimeout > 0 {
		c.c.SetReadDeadline(time.Now().Add(c.opTimeout))
	}
	if err := server.ReadResponse(c.br, op, &c.resp); err != nil {
		return nil, &PipelineError{Pending: c.Pending(), Err: err}
	}
	c.head++
	if c.head == len(c.inflight) {
		c.inflight, c.head = c.inflight[:0], 0
	}
	if c.resp.Status == server.StatusErr {
		return nil, fmt.Errorf("client: server error: %s", c.resp.Body)
	}
	return &c.resp, nil
}

// SendUntracked buffers a request without enrolling it in the pipeline
// FIFO — for callers that track response opcodes themselves. The
// open-loop load generator splits one Conn between a sender and a
// receiver goroutine this way: the write half (SendUntracked, Flush)
// and the read half (RecvFor) touch disjoint state, so the split is
// race-free as long as each half stays on one goroutine.
func (c *Conn) SendUntracked(req *server.Request) {
	// Encoded straight into bw's buffer, flushed first if the frame might
	// not fit (the append never reallocates); write errors surface on Flush.
	if c.bw.Available() < 4+1+2+len(req.Key)+8 {
		c.bw.Flush()
	}
	c.bw.Write(server.AppendRequest(c.bw.AvailableBuffer(), req))
}

// RecvFor decodes the next response frame for a request sent with
// opcode op (untracked pipelining). The returned Response aliases
// internal buffers until the next RecvFor/Recv. Transport failures are
// wrapped like Recv's, with Pending = -1 (the caller owns the FIFO).
func (c *Conn) RecvFor(op byte) (*server.Response, error) {
	if c.opTimeout > 0 {
		c.c.SetReadDeadline(time.Now().Add(c.opTimeout))
	}
	if err := server.ReadResponse(c.br, op, &c.resp); err != nil {
		return nil, &PipelineError{Pending: -1, Err: err}
	}
	if c.resp.Status == server.StatusErr {
		return nil, fmt.Errorf("client: server error: %s", c.resp.Body)
	}
	return &c.resp, nil
}

// roundTrip sends one request and waits for its response (pipeline
// depth 1 — the synchronous convenience API). Admission rejections come
// back typed: *BusyError with the server's hint, ErrDraining on
// shutdown.
func (c *Conn) roundTrip(req *server.Request) (*server.Response, error) {
	c.Send(req)
	if err := c.Flush(); err != nil {
		return nil, err
	}
	resp, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if serr := statusErr(resp.Status, resp.RetryAfterMs); serr != nil {
		return nil, serr
	}
	return resp, nil
}

// Get fetches key's value.
func (c *Conn) Get(key []byte) (uint64, bool, error) {
	resp, err := c.roundTrip(&server.Request{Op: server.OpGet, Key: key})
	if err != nil {
		return 0, false, err
	}
	return resp.Val, resp.Status == server.StatusOK, nil
}

// Put stores key→val, reporting whether the key was newly inserted.
func (c *Conn) Put(key []byte, val uint64) (bool, error) {
	resp, err := c.roundTrip(&server.Request{Op: server.OpPut, Key: key, Val: val})
	if err != nil {
		return false, err
	}
	return resp.Flag, nil
}

// Delete removes key, reporting whether it was present.
func (c *Conn) Delete(key []byte) (bool, error) {
	resp, err := c.roundTrip(&server.Request{Op: server.OpDelete, Key: key})
	if err != nil {
		return false, err
	}
	return resp.Flag, nil
}

// Contains reports whether key is present.
func (c *Conn) Contains(key []byte) (bool, error) {
	resp, err := c.roundTrip(&server.Request{Op: server.OpContains, Key: key})
	if err != nil {
		return false, err
	}
	return resp.Flag, nil
}

// Ping round-trips an empty frame.
func (c *Conn) Ping() error {
	_, err := c.roundTrip(&server.Request{Op: server.OpPing})
	return err
}

// Stats fetches the server's cumulative counters.
func (c *Conn) Stats() (server.Stats, error) {
	var st server.Stats
	resp, err := c.roundTrip(&server.Request{Op: server.OpStats})
	if err != nil {
		return st, err
	}
	err = json.Unmarshal(resp.Body, &st)
	return st, err
}
