package server_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"flit/internal/client"
	"flit/internal/resilience"
	"flit/internal/server"
	"flit/internal/store"
	"flit/internal/workload"
)

// unixServer serves st over a unix socket with the flitstored defaults
// (metrics on) and returns a connected client; both end with the test.
func unixServer(tb testing.TB, st *store.Store) *client.Conn {
	tb.Helper()
	srv := server.New(st, server.Options{Metrics: true})
	tb.Cleanup(func() { srv.Close() })
	ln, err := net.Listen("unix", filepath.Join(tb.TempDir(), "s"))
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	c, err := client.Dial("unix", ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// putGetWindow is the net_* workloads' window: alternating Put/Get.
func putGetWindow(depth int) []server.Request {
	reqs := make([]server.Request, depth)
	for i := range reqs {
		reqs[i] = server.Request{Op: server.OpPut, Key: workload.AppendKey(nil, uint64(i)), Val: uint64(i) + 1}
		if i%2 == 1 {
			reqs[i].Op = server.OpGet
		}
	}
	return reqs
}

// TestWirePathZeroAlloc pins the request path's allocation count at zero:
// the codec round trip on its own, then whole windows of depth 1 and 32
// through a served unix socket with client and server mallocs summed
// (AllocsPerRun reads the process-wide counter), as benchmark/ sums them
// for allocs_per_op on net_d1 and net_d32.
func TestWirePathZeroAlloc(t *testing.T) {
	t.Run("codec", func(t *testing.T) {
		reqs := putGetWindow(2)
		var (
			wire []byte
			rd   bytes.Reader
			req  server.Request
			resp server.Response
		)
		br := bufio.NewReader(&rd)
		roundTrip := func() {
			for i := range reqs {
				wire = server.AppendRequest(wire[:0], &reqs[i])
				rd.Reset(wire)
				br.Reset(&rd)
				if err := server.ReadRequest(br, &req); err != nil {
					t.Fatal(err)
				}
				out := server.Response{Status: server.StatusOK, Val: req.Val, Flag: true}
				wire = server.AppendResponse(wire[:0], req.Op, &out)
				rd.Reset(wire)
				br.Reset(&rd)
				if err := server.ReadResponse(br, req.Op, &resp); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
			t.Fatalf("codec round trip allocates %v per run, want 0", n)
		}
	})
	for _, depth := range []int{1, 32} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			c := unixServer(t, newTestStore(t))
			all := putGetWindow(32)
			const windows = 64 // per run: AllocsPerRun truncates, so 0 means < 1/64 per window
			run := func() {
				for w := 0; w < windows; w++ {
					reqs := all[w*depth%len(all):][:depth]
					for i := range reqs {
						c.Send(&reqs[i])
					}
					if err := c.Flush(); err != nil {
						t.Fatal(err)
					}
					for range reqs {
						if resp, err := c.Recv(); err != nil || resp.Status > server.StatusNotFound {
							t.Fatalf("Recv = %+v, %v", resp, err)
						}
					}
				}
			}
			if n := testing.AllocsPerRun(20, run); n != 0 {
				t.Fatalf("%d windows of depth %d allocate %v (client + server), want 0", windows, depth, n)
			}
		})
	}
}

// TestReadFrameEOFContract: io.EOF only at a frame boundary, where it is a
// clean hangup; a stream that ends anywhere inside a frame — in the length
// prefix or in the body — is io.ErrUnexpectedEOF; a prefix no request can
// have is ErrMalformed before a byte of body is awaited or allocated.
func TestReadFrameEOFContract(t *testing.T) {
	ping := server.AppendRequest(nil, &server.Request{Op: server.OpPing})
	put := server.AppendRequest(nil, &server.Request{Op: server.OpPut, Key: []byte("k"), Val: 1})
	for _, tc := range []struct {
		name   string
		stream []byte
		frames int // decoded before the error
		want   error
	}{
		{"empty", nil, 0, io.EOF},
		{"boundary", append(append([]byte{}, ping...), put...), 2, io.EOF},
		{"one header byte", []byte{1}, 0, io.ErrUnexpectedEOF},
		{"three header bytes", append(append([]byte{}, ping...), put[:3]...), 1, io.ErrUnexpectedEOF},
		{"header, no body", put[:4], 0, io.ErrUnexpectedEOF},
		{"half a body", put[:len(put)-3], 0, io.ErrUnexpectedEOF},
		{"zero length", []byte{0, 0, 0, 0}, 0, server.ErrMalformed},
		{"past the request cap", []byte{0x0b, 0, 1, 0, server.OpPut}, 0, server.ErrMalformed},
	} {
		br := bufio.NewReaderSize(bytes.NewReader(tc.stream), 16)
		var req server.Request
		n := 0
		var err error
		for err == nil {
			if err = server.ReadRequest(br, &req); err == nil {
				n++
			}
		}
		if n != tc.frames || !errors.Is(err, tc.want) {
			t.Errorf("%s: %d frames then %v, want %d then %v", tc.name, n, err, tc.frames, tc.want)
		}
	}
}

// wireScript is a fixed pipeline touching every opcode and response shape,
// with keys long enough that frames outgrow a fragment.
func wireScript() (reqs []server.Request, wire []byte) {
	long := bytes.Repeat([]byte("k"), 300)
	reqs = []server.Request{
		{Op: server.OpPut, Key: []byte("alpha"), Val: 41},
		{Op: server.OpGet, Key: []byte("alpha")},
		{Op: server.OpPut, Key: long, Val: 1<<64 - 1},
		{Op: server.OpPing},
		{Op: server.OpContains, Key: long},
		{Op: server.OpGet, Key: []byte("ghost")},
		{Op: server.OpDelete, Key: []byte("alpha")},
		{Op: server.OpDelete, Key: []byte("alpha")},
		{Op: server.OpGet, Key: long},
	}
	for i := range reqs {
		wire = server.AppendRequest(wire, &reqs[i])
	}
	return reqs, wire
}

// byteWriter delivers every Write one byte at a time; over a net.Pipe each
// byte is its own read on the peer, so every multi-byte field straddles reads.
type byteWriter struct{ net.Conn }

func (c byteWriter) Write(p []byte) (int, error) {
	for i := range p {
		if _, err := c.Conn.Write(p[i : i+1]); err != nil {
			return i, err
		}
	}
	return len(p), nil
}

// runWireScript plays wireScript against a fresh server over a net.Pipe
// whose two ends are wrapped with wrap, and returns the raw response bytes.
func runWireScript(t *testing.T, wrap func(net.Conn) net.Conn) []byte {
	t.Helper()
	srv := server.New(newTestStore(t), server.Options{})
	defer srv.Close()
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() { srv.ServeConn(wrap(sc)); close(done) }()
	cw := wrap(cc)
	reqs, wire := wireScript()
	go cw.Write(wire)
	var raw bytes.Buffer
	br := bufio.NewReader(io.TeeReader(cw, &raw))
	var resp server.Response
	for i := range reqs {
		if err := server.ReadResponse(br, reqs[i].Op, &resp); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
	}
	cw.Close()
	<-done
	if errs := srv.Stats().ConnErrors; len(errs) != 0 {
		t.Fatalf("hangup at a frame boundary counted as a failure: %v", errs)
	}
	return raw.Bytes()
}

// TestFragmentedTransportDecodesIdentically: with both directions
// fragmented — resilience.WrapConn's seeded 1..16-byte partial writes, then
// one byte per read, where every length prefix, key header and value
// straddles reads — the server must answer byte for byte what it answers on
// the bare transport.
func TestFragmentedTransportDecodesIdentically(t *testing.T) {
	bare := runWireScript(t, func(c net.Conn) net.Conn { return c })
	if len(bare) == 0 {
		t.Fatal("no response bytes captured")
	}
	wraps := map[string]func(net.Conn) net.Conn{"one byte": func(c net.Conn) net.Conn { return byteWriter{c} }}
	for seed := int64(1); seed <= 3; seed++ {
		f := resilience.Faults{Seed: seed, PartialWrites: true}
		wraps[fmt.Sprintf("WrapConn seed %d", seed)] = func(c net.Conn) net.Conn { return resilience.WrapConn(c, f) }
	}
	for name, wrap := range wraps {
		if frag := runWireScript(t, wrap); !bytes.Equal(bare, frag) {
			t.Errorf("%s: fragmented run answered\n% x\nbare run\n% x", name, frag, bare)
		}
	}
}

// TestServerEOFInsideHeaderIsReset: a peer that dies two bytes into a
// length prefix is transport loss (cause=reset), not a clean hangup and
// not a framing error.
func TestServerEOFInsideHeaderIsReset(t *testing.T) {
	srv := server.New(newTestStore(t), server.Options{})
	defer srv.Close()
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() { srv.ServeConn(sc); close(done) }()
	// One whole frame, answered, then half a prefix.
	if _, err := cc.Write(server.AppendRequest(nil, &server.Request{Op: server.OpPing})); err != nil {
		t.Fatal(err)
	}
	var resp server.Response
	if err := server.ReadResponse(bufio.NewReader(cc), server.OpPing, &resp); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Write([]byte{7, 0}); err != nil {
		t.Fatal(err)
	}
	cc.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after the peer died mid-header")
	}
	if errs := srv.Stats().ConnErrors; errs["reset"] != 1 || len(errs) != 1 {
		t.Fatalf("ConnErrors = %v, want exactly one reset", errs)
	}
}

// cutWriter delivers every Write as two, split at offset at, so over a
// net.Pipe the peer's reader holds the stream cut there.
type cutWriter struct {
	net.Conn
	at int
}

func (c cutWriter) Write(p []byte) (int, error) {
	if c.at <= 0 || c.at >= len(p) {
		return c.Conn.Write(p)
	}
	n, err := c.Conn.Write(p[:c.at])
	if err != nil {
		return n, err
	}
	m, err := c.Conn.Write(p[c.at:])
	return n + m, err
}

// TestWindowTakesWholeFramesOnly: the server decodes keys in place in its
// read buffer, so a window must end at a partial frame — reading it would
// refill the buffer under the keys already taken. Each depth-32 window is
// cut at the next offset of its stream, inside length prefixes and keys
// alike, and every answer must match a map's.
func TestWindowTakesWholeFramesOnly(t *testing.T) {
	srv := server.New(newTestStore(t), server.Options{})
	defer srv.Close()
	cc, sc := net.Pipe()
	go srv.ServeConn(sc)
	defer cc.Close()
	br := bufio.NewReader(cc)
	oracle := map[string]uint64{}
	reqs := make([]server.Request, 32)
	want := make([]server.Response, len(reqs))
	var wire []byte
	var resp server.Response
	for round := 0; round == 0 || round < len(wire); round++ {
		// Even slots Put fresh keys; odd ones Get the previous round's.
		wire = wire[:0]
		for i := range reqs {
			if i%2 == 0 {
				key := fmt.Sprintf("r%d/%d", round, i)
				reqs[i] = server.Request{Op: server.OpPut, Key: []byte(key), Val: uint64(round<<8 | i)}
				want[i] = server.Response{Status: server.StatusOK, Flag: true}
				oracle[key] = reqs[i].Val
			} else {
				key := fmt.Sprintf("r%d/%d", round-1, i-1)
				v, ok := oracle[key]
				reqs[i] = server.Request{Op: server.OpGet, Key: []byte(key)}
				want[i] = server.Response{Status: server.StatusNotFound}
				if ok {
					want[i] = server.Response{Status: server.StatusOK, Val: v}
				}
			}
			wire = server.AppendRequest(wire, &reqs[i])
		}
		sent := make(chan error, 1)
		go func() { _, err := (cutWriter{cc, round}).Write(wire); sent <- err }()
		for i := range reqs {
			if err := server.ReadResponse(br, reqs[i].Op, &resp); err != nil {
				t.Fatalf("cut at %d: response %d: %v", round, i, err)
			}
			if resp.Status != want[i].Status || resp.Val != want[i].Val || resp.Flag != want[i].Flag {
				t.Fatalf("cut at %d: %d %q answered %+v, want %+v", round, reqs[i].Op, reqs[i].Key, resp, want[i])
			}
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	}
}

// TestShutdownWithPartialFrameBuffered: a drain answers the whole frames
// left in the read buffer and stops at a partial one, which it can neither
// answer nor complete; Shutdown must still return.
func TestShutdownWithPartialFrameBuffered(t *testing.T) {
	srv := server.New(newTestStore(t), server.Options{})
	cc, sc := net.Pipe()
	go srv.ServeConn(sc)
	defer cc.Close()
	// A Ping, answered, then a Put cut inside its key.
	put := server.AppendRequest(nil, &server.Request{Op: server.OpPut, Key: []byte("key"), Val: 1})
	stream := append(server.AppendRequest(nil, &server.Request{Op: server.OpPing}), put[:8]...)
	if _, err := cc.Write(stream); err != nil {
		t.Fatal(err)
	}
	var resp server.Response
	if err := server.ReadResponse(bufio.NewReader(cc), server.OpPing, &resp); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return with a partial frame buffered")
	}
}
