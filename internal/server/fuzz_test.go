package server_test

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"flit/internal/server"
)

// The wire decoders face bytes from outside the process. Both fuzz
// targets hold them to the same three promises on arbitrary input: no
// panic, no allocation a hostile length prefix can inflate past the frame
// cap, and decode∘encode is the identity on everything that decodes.

// seedRequests are the request shapes the protocol tests exercise: every
// opcode (TestServerRoundTrips, TestBatcherDirect), with and without a
// key, with an empty key and a value using all 64 bits, and one frame
// larger than the fuzz reader's 4 KiB buffer, which decodes by copy, not
// in place.
var seedRequests = []server.Request{
	{Op: server.OpPut, Key: bytes.Repeat([]byte("big"), 2000), Val: 3},
	{Op: server.OpPut, Key: []byte("alpha"), Val: 41},
	{Op: server.OpPut, Key: []byte("x"), Val: 1<<64 - 1},
	{Op: server.OpGet, Key: []byte("alpha")},
	{Op: server.OpGet, Key: []byte("ghost")},
	{Op: server.OpContains, Key: []byte("alpha")},
	{Op: server.OpDelete, Key: []byte("y")},
	{Op: server.OpDelete, Key: nil},
	{Op: server.OpPing},
	{Op: server.OpStats},
}

// seedFrames are the malformed frames the protocol tests send: the
// zero-length frame (TestServerFramingErrorCountedAndLogged), the unknown
// opcode (TestServerMalformedRequestGetsErrorFrame), plus the prefixes a
// hostile peer would try first — a length past the cap and a length the
// stream never delivers, and the amplification probe: one byte past the
// largest request there is (a PUT of a MaxKeyLen key), which the request
// side must refuse before it allocates — the 1 MiB frame cap is the
// response side's.
var seedFrames = [][]byte{
	{0, 0, 0, 0},
	{1, 0, 0, 0, 99},
	{0xff, 0xff, 0xff, 0xff, server.OpGet},
	{0, 0, 16, 0, server.OpPut, 1, 0},
	{0x0b, 0x00, 0x01, 0x00, server.OpPut, 0xff, 0xff},
}

// allocCeiling bounds what decoding data may allocate: one frame buffer
// per frame actually present in the input, one more (capped at frameCap)
// for a final prefix the stream never backs, and the reader's own buffer.
func allocCeiling(data []byte, frameCap int) uint64 {
	return uint64(frameCap + 2*len(data) + 64<<10)
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkDecodeErr holds a decoder's failure to the two kinds the serve
// loop classifies: a protocol violation or the stream ending.
func checkDecodeErr(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, server.ErrMalformed) && err != io.EOF && err != io.ErrUnexpectedEOF {
		t.Fatalf("decode error is neither ErrMalformed nor end-of-stream: %v", err)
	}
}

func FuzzReadRequest(f *testing.F) {
	var window []byte
	for i := range seedRequests {
		frame := server.AppendRequest(nil, &seedRequests[i])
		f.Add(frame)
		window = append(window, frame...)
	}
	f.Add(window) // a pipelined window: every frame back to back
	for _, frame := range seedFrames {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := allocated(func() {
			br := bufio.NewReader(bytes.NewReader(data))
			var req server.Request
			off := 0
			for {
				if err := server.ReadRequest(br, &req); err != nil {
					checkDecodeErr(t, err)
					return
				}
				if len(req.Key) > server.MaxKeyLen {
					t.Fatalf("decoded a %d-byte key past MaxKeyLen", len(req.Key))
				}
				// Request decoding is strict, so the encoding is unique:
				// re-encoding must reproduce the consumed bytes exactly.
				enc := server.AppendRequest(nil, &req)
				if off+len(enc) > len(data) || !bytes.Equal(enc, data[off:off+len(enc)]) {
					t.Fatalf("request %+v re-encodes to % x, stream had % x", req, enc, data[off:])
				}
				off += len(enc)
			}
		})
		if limit := allocCeiling(data, server.MaxRequestLen); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, ceiling %d", len(data), got, limit)
		}
	})
}

func FuzzReadResponse(f *testing.F) {
	for _, seed := range []struct {
		op   byte
		resp server.Response
	}{
		{server.OpGet, server.Response{Status: server.StatusOK, Val: 42}},
		{server.OpGet, server.Response{Status: server.StatusNotFound}},
		{server.OpPut, server.Response{Status: server.StatusOK, Flag: true}},
		{server.OpDelete, server.Response{Status: server.StatusOK}},
		{server.OpContains, server.Response{Status: server.StatusOK, Flag: true}},
		{server.OpPing, server.Response{Status: server.StatusOK}},
		{server.OpStats, server.Response{Status: server.StatusOK, Body: []byte(`{"v":2}`)}},
		{server.OpPut, server.Response{Status: server.StatusBusy, RetryAfterMs: 7}},
		{server.OpGet, server.Response{Status: server.StatusDraining}},
		{0, server.Response{Status: server.StatusErr, Body: []byte("server: unknown opcode 99")}},
		{server.OpStats, server.Response{Status: server.StatusOK, Body: bytes.Repeat([]byte(" "), 5000)}},
	} {
		f.Add(seed.op, server.AppendResponse(nil, seed.op, &seed.resp))
	}
	for _, frame := range seedFrames {
		f.Add(byte(server.OpGet), frame)
	}
	f.Fuzz(func(t *testing.T, op byte, data []byte) {
		got := allocated(func() {
			var resp, again server.Response
			if err := server.ReadResponse(bufio.NewReader(bytes.NewReader(data)), op, &resp); err != nil {
				checkDecodeErr(t, err)
				return
			}
			// Response decoding tolerates slack the encoder never emits (a
			// flag byte of 2, a body under a bodiless status), so the
			// round trip is pinned from the encoder's side: what decoded
			// must re-encode to a frame that decodes to the same response
			// and re-encodes to the same bytes.
			enc := server.AppendResponse(nil, op, &resp)
			if err := server.ReadResponse(bufio.NewReader(bytes.NewReader(enc)), op, &again); err != nil {
				t.Fatalf("own encoding % x of %+v does not decode: %v", enc, resp, err)
			}
			if again.Status != resp.Status || again.Val != resp.Val || again.Flag != resp.Flag ||
				again.RetryAfterMs != resp.RetryAfterMs || !bytes.Equal(again.Body, resp.Body) {
				t.Fatalf("round trip changed the response: %+v -> %+v", resp, again)
			}
			if enc2 := server.AppendResponse(nil, op, &again); !bytes.Equal(enc, enc2) {
				t.Fatalf("re-encoding is not byte-exact: % x then % x", enc, enc2)
			}
		})
		if limit := allocCeiling(data, server.MaxFrameLen); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, ceiling %d", len(data), got, limit)
		}
	})
}
