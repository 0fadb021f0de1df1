package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"flit/internal/store"
)

// ErrMalformed tags protocol-violation decode errors (bad length
// prefixes, unknown opcodes, wrong body sizes) so callers can separate
// them from transport failures with errors.Is.
var ErrMalformed = errors.New("malformed frame")

// The wire protocol is a pipelined, length-prefixed binary framing over
// any stream transport (TCP, unix sockets, net.Pipe). All integers are
// little-endian. Responses are returned strictly in request order per
// connection, so frames carry no sequence numbers — the pipeline is the
// sequencing.
//
// Request frame:
//
//	u32 payloadLen | u8 op | body
//	  GET/DELETE/CONTAINS: u16 keyLen | key
//	  PUT:                 u16 keyLen | key | u64 value
//	  PING/STATS:          (empty)
//
// Response frame:
//
//	u32 payloadLen | u8 status | body
//	  GET:              value (u64) when StatusOK; empty when StatusNotFound
//	  PUT/DELETE/CONTAINS: u8 flag (PUT: newly inserted; DELETE: existed;
//	                       CONTAINS: present)
//	  PING:             (empty)
//	  STATS:            JSON (see Stats; the "v" field carries
//	                    StatsVersion — v2 adds the optional "metrics"
//	                    summary block when the server's metrics core is
//	                    enabled. JSON keeps the versions mutually
//	                    compatible: unknown fields are ignored, missing
//	                    ones stay zero.)
//	  StatusErr:        error message (per-request from the executor, or a
//	                    final best-effort frame for a malformed request —
//	                    either way the server then closes the connection)
//	  StatusBusy:       u32 retry-after-ms — the op was shed by admission
//	                    control, not executed; retry after the hint
//	  StatusDraining:   (empty) — the server is shutting down; the op was
//	                    not executed and the connection closes after the
//	                    batch is answered
//
// Keys. A key is 0–65535 arbitrary bytes on the wire, but the store does
// not keep them: it reduces every key to store.HashKey's 48-bit unkeyed
// hash, and that hash IS the key — the bytes are never stored, compared or
// returned. Two distinct client keys whose hashes collide are therefore one
// key to every operation, silently: a PUT under one overwrites the other, a
// GET of either returns the last value put under both, a DELETE removes
// both. Honest keys collide with probability about n²/2^49 for n keys;
// but the hash function is public and has no secret seed, so a peer can
// construct colliding pairs offline and aim them at another client's keys.
// Deployments that cannot trust every peer must namespace or authenticate
// keys above this protocol.

// Opcodes.
const (
	OpGet byte = iota + 1
	OpPut
	OpDelete
	OpContains
	OpPing
	OpStats
)

// Response statuses. Busy and Draining are the admission-control
// rejections (see resilience layer): the request was NOT executed and the
// client may retry it — after the carried hint for Busy, against another
// server (or later) for Draining. They can answer any store opcode; PING
// and STATS are control traffic and are always served.
const (
	StatusOK       byte = 0
	StatusNotFound byte = 1
	StatusBusy     byte = 2 // shed by admission control; body: u32 retry-after-ms
	StatusDraining byte = 3 // server shutting down; empty body
	StatusErr      byte = 255
)

// Frame limits: keys are length-prefixed with 16 bits; the payload caps
// bound a malformed or hostile length prefix before any allocation. The
// request side is held to the largest request there is, a PUT of a
// MaxKeyLen key; MaxFrameLen caps the response side (STATS bodies).
const (
	MaxKeyLen     = 1<<16 - 1
	MaxRequestLen = 1 + 2 + MaxKeyLen + 8
	MaxFrameLen   = 1 << 20
)

// Request is one decoded client request.
type Request struct {
	Op  byte
	Key []byte
	Val uint64

	// buf is ReadRequest's reused frame buffer; Key aliases it until the
	// next ReadRequest on the same Request.
	buf []byte
}

// Response is one decoded server response.
type Response struct {
	Status       byte
	Val          uint64 // GET value
	Flag         bool   // PUT inserted / DELETE existed / CONTAINS present
	Body         []byte // STATS JSON or error message
	RetryAfterMs uint32 // StatusBusy backoff hint

	// buf is ReadResponse's reused frame buffer; Body aliases it until
	// the next ReadResponse on the same Response.
	buf []byte
}

// wireOps maps store op kinds onto wire opcodes; store.OpAdd has none.
var wireOps = [...]byte{
	store.OpGet: OpGet, store.OpPut: OpPut,
	store.OpDelete: OpDelete, store.OpContains: OpContains,
}

// WireRequest translates a store op into its wire request. The request's
// key aliases op's when K is []byte.
func WireRequest[K store.Key](op store.Op[K]) (Request, error) {
	if int(op.Kind) >= len(wireOps) {
		return Request{}, fmt.Errorf("server: store op kind %d has no wire opcode", op.Kind)
	}
	return Request{Op: wireOps[op.Kind], Key: []byte(op.Key), Val: op.Val}, nil
}

// WireResult translates the response to a request for a store op of the
// given kind into the store's result shape: Ok is "present" for a GET
// and the flag for everything else.
func WireResult(kind store.OpKind, resp *Response) store.Result {
	if kind == store.OpGet {
		return store.Result{Val: resp.Val, Ok: resp.Status == StatusOK}
	}
	return store.Result{Ok: resp.Flag}
}

// hasKey reports whether op carries a key field.
func hasKey(op byte) bool {
	return op == OpGet || op == OpPut || op == OpDelete || op == OpContains
}

// AppendRequest appends req's frame to dst and returns the extended
// slice (allocation-free once dst has capacity). Both ends pass their
// bufio.Writer's AvailableBuffer, so a frame is encoded once, in place.
//
//flit:hotpath
func AppendRequest(dst []byte, req *Request) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0, req.Op)
	if hasKey(req.Op) {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(req.Key)))
		dst = append(dst, req.Key...)
		if req.Op == OpPut {
			dst = binary.LittleEndian.AppendUint64(dst, req.Val)
		}
	}
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// AppendResponse appends resp's frame for the given request opcode to
// dst and returns the extended slice.
//
//flit:hotpath
func AppendResponse(dst []byte, op byte, resp *Response) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0, resp.Status)
	switch {
	case resp.Status == StatusErr, resp.Status == StatusOK && op == OpStats:
		dst = append(dst, resp.Body...)
	case resp.Status == StatusBusy:
		dst = binary.LittleEndian.AppendUint32(dst, resp.RetryAfterMs)
	case resp.Status == StatusDraining:
	case op == OpGet && resp.Status == StatusOK:
		dst = binary.LittleEndian.AppendUint64(dst, resp.Val)
	case op == OpPut, op == OpDelete, op == OpContains:
		b := byte(0)
		if resp.Flag {
			b = 1
		}
		dst = append(dst, b)
	}
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// readFrame reads one length-prefixed payload of at most limit bytes into
// buf (grown as needed). The prefix is taken with Peek/Discard: a local
// [4]byte escapes through io.ReadFull's interface call, a malloc per frame.
// io.EOF means the stream ended at a frame boundary; inside a frame it is
// io.ErrUnexpectedEOF.
//
//flit:hotpath
func readFrame(r *bufio.Reader, buf []byte, limit uint32) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 || n > limit {
		return nil, errFrameLen(n, limit)
	}
	r.Discard(4)
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// Decode errors are built off the hot path: fmt allocates.
func errFrameLen(n, limit uint32) error {
	return fmt.Errorf("server: frame length %d outside (0,%d]: %w", n, limit, ErrMalformed)
}
func errOpcode(op byte) error { return fmt.Errorf("server: unknown opcode %d: %w", op, ErrMalformed) }
func errBodyLen(what string, got, want int) error {
	return fmt.Errorf("server: %s body is %d bytes, want %d: %w", what, got, want, ErrMalformed)
}
func errReqBody(op byte, got, want int) error {
	return fmt.Errorf("server: opcode %d body is %d bytes, want %d: %w", op, got, want, ErrMalformed)
}

// ReadRequest decodes the next request frame, reusing req.Key's backing
// array when possible. The returned key aliases req.Key until the next
// call.
//
//flit:hotpath
func ReadRequest(r *bufio.Reader, req *Request) error {
	payload, err := readFrame(r, req.buf, MaxRequestLen)
	if err != nil {
		return err
	}
	req.buf, req.Key, req.Op, req.Val = payload, payload[:0], payload[0], 0
	body := payload[1:]
	if !hasKey(req.Op) {
		if req.Op != OpPing && req.Op != OpStats {
			return errOpcode(req.Op)
		}
		if len(body) != 0 {
			return errReqBody(req.Op, len(body), 0)
		}
		return nil
	}
	if len(body) < 2 {
		return errBodyLen("key header", len(body), 2)
	}
	klen := int(binary.LittleEndian.Uint16(body))
	body = body[2:]
	want := klen
	if req.Op == OpPut {
		want += 8
	}
	if len(body) != want {
		return errReqBody(req.Op, len(body), want)
	}
	req.Key = body[:klen]
	if req.Op == OpPut {
		req.Val = binary.LittleEndian.Uint64(body[klen:])
	}
	return nil
}

// ReadResponse decodes the next response frame for a request with the
// given opcode, reusing resp.Body's backing array when possible.
//
//flit:hotpath
func ReadResponse(r *bufio.Reader, op byte, resp *Response) error {
	payload, err := readFrame(r, resp.buf, MaxFrameLen)
	if err != nil {
		return err
	}
	resp.buf, resp.Status = payload, payload[0]
	resp.Val, resp.Flag, resp.Body, resp.RetryAfterMs = 0, false, payload[:0], 0
	body := payload[1:]
	switch {
	case resp.Status == StatusErr, resp.Status == StatusOK && op == OpStats:
		resp.Body = body
	case resp.Status == StatusBusy:
		if len(body) != 4 {
			return errBodyLen("BUSY response", len(body), 4)
		}
		resp.RetryAfterMs = binary.LittleEndian.Uint32(body)
	case resp.Status == StatusDraining:
		if len(body) != 0 {
			return errBodyLen("DRAINING response", len(body), 0)
		}
	case op == OpGet && resp.Status == StatusOK:
		if len(body) != 8 {
			return errBodyLen("GET response", len(body), 8)
		}
		resp.Val = binary.LittleEndian.Uint64(body)
	case op == OpPut, op == OpDelete, op == OpContains:
		if len(body) != 1 {
			return errBodyLen("flag response", len(body), 1)
		}
		resp.Flag = body[0] != 0
	}
	return nil
}
