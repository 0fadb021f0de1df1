// Package server is the network front-end of FliT-Store: a pipelined
// binary protocol (see protocol.go) whose request path ends in the
// store's one commit pipeline, its flat combiner.
//
// Every connection is served by one goroutine owning one conn: buffered
// reader and writer, MaxBatch request/response slots and a Batcher (one
// Combined-mode store session). It runs four stages per window:
// readWindow decodes every whole frame the client already pipelined, up
// to Options.MaxBatch, in place in the reader's buffer; admit charges it
// to admission control; exec hashes its store ops' keys and hands them
// to the combiner as one vector (Batcher.Exec), which
// executes them in pipeline order, in a window shared with every other
// connection announced beside it (run by this connection itself when it
// finds the combiner idle), and commits the window under ONE fence
// (none when it left nothing pending) before any response exists;
// writeResps encodes the answers straight into the writer's buffer and
// flushes. So "acknowledged ⇒ persisted" holds at every crash point:
// the store half is enumerated by internal/crashtest.RunStoreDL in
// store.Combined mode, and the wire end to end is checked under faults
// by internal/crashtest.RunStoreChaos.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"flit/internal/metrics"
	"flit/internal/resilience"
	"flit/internal/store"
)

// Options configures a server. Zero values pick defaults.
type Options struct {
	// MaxBatch caps the operations executed under one group commit
	// (default 64). A connection's batch is min(pipelined, MaxBatch).
	MaxBatch int
	// Metrics enables the histogram bundle (see metrics.go): per-op
	// latency and batch-shape histograms, the /metrics exposition page's
	// per-kind families and the STATS v2 summary. Off, the hot path pays
	// one nil check per batch; the counters are kept either way.
	Metrics bool

	// --- resilience layer (admission control, deadlines, drain) ---
	// Zero values disable each mechanism, so the hot path of an
	// unconfigured server pays one nil/zero check per batch and no
	// deadline syscalls.

	// MaxConns caps concurrently served connections. A connection over
	// the cap is answered with one unsolicited BUSY frame and closed.
	MaxConns int
	// MaxInflight caps store ops concurrently being executed across all
	// connections; a batch that would exceed it is shed with BUSY.
	MaxInflight int
	// RateLimit admits at most this many store ops per second (token
	// bucket, burst RateBurst); excess batches are shed with BUSY plus a
	// retry-after hint. PING/STATS are control traffic, never shed.
	RateLimit float64
	// RateBurst is the token-bucket burst. Defaults to 4*MaxBatch and is
	// clamped to at least MaxBatch so a full pipeline window can always
	// (eventually) conform.
	RateBurst int
	// IdleTimeout reaps connections that sit idle at a pipeline head.
	IdleTimeout time.Duration
	// WriteTimeout is the slow-reader budget: the whole response batch
	// must be accepted by the peer within it. A stalled reader is
	// disconnected rather than wedging its handler goroutine. Its window
	// has already committed by then, so it holds up no other connection;
	// the budget bounds the goroutine, its buffers and its slot.
	WriteTimeout time.Duration
	// Logger receives one line per failed connection (cause + remote
	// address). nil keeps the server silent; counters still tick.
	Logger *log.Logger
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.RateLimit > 0 {
		if o.RateBurst <= 0 {
			o.RateBurst = 4 * o.MaxBatch
		}
		if o.RateBurst < o.MaxBatch {
			o.RateBurst = o.MaxBatch
		}
	}
	return o
}

// StatsVersion is the STATS snapshot format version. v1 was the bare
// counter set; v2 added the Version field itself and the optional
// Metrics summary (server-side latency quantiles and batch-shape
// distribution). The body is JSON, so the versions are mutually
// forward- and backward-compatible: old clients ignore the new fields,
// new clients treat a missing Metrics block as "server has metrics
// disabled" (or a v1 server).
const StatsVersion = 2

// Stats is the server's cumulative operational snapshot, also the STATS
// opcode's JSON body. Batches, Drained, PWBs, PFences and PFencesElided
// are the store combiner's account of its windows (store.WindowStats), so
// an interval's (Since) pwbs/op is per acknowledged op when the server is
// the store's only Combined user, as in flitstored.
type Stats struct {
	Version   int    `json:"v"`          // StatsVersion of the emitting server
	Conns     uint64 `json:"conns"`      // connections accepted
	ConnsOpen int64  `json:"conns_open"` // connections being served now
	OpsServed uint64 `json:"ops_served"` // store ops acknowledged
	Batches   uint64 `json:"batches"`    // commit windows, fenced or elided
	Drained   uint64 `json:"drained"`    // lines drained by window commits
	MaxBatch  int    `json:"max_batch"`

	Shards int    `json:"shards"`
	Policy string `json:"policy"`

	PWBs    uint64 `json:"pwbs"`    // PWB instructions the windows issued
	PFences uint64 `json:"pfences"` // PFence instructions the windows issued
	// PFencesElided counts the dependency and group-commit fences the
	// policy found empty and did not issue (pmem.Stats.ElidedFences);
	// PFences + PFencesElided is what Algorithm 4 plus one fence per batch
	// asks for.
	PFencesElided uint64 `json:"pfences_elided"`

	// Resilience accounting (compatible v2 extensions — JSON ignores
	// unknown fields, so older clients are unaffected). Shed counts are
	// store ops rejected without execution; ConnErrors classifies failed
	// connections by cause (framing, reset, idle, slow_reader, panic).
	ShedBusy      uint64            `json:"shed_busy"`
	ShedDraining  uint64            `json:"shed_draining"`
	ConnsRejected uint64            `json:"conns_rejected"`
	ConnErrors    map[string]uint64 `json:"conn_errors,omitempty"`
	Draining      bool              `json:"draining,omitempty"`

	// Metrics is the v2 extension, present when the server's metrics
	// core is enabled: cumulative server-side quantiles and batch-shape
	// summaries, so a load generator can print server-observed
	// percentiles next to its client-observed ones.
	Metrics *StatsMetrics `json:"metrics,omitempty"`
}

// Interval is the server's work between two Stats snapshots: the deltas
// of the monotone counters and the ratios they make. A ratio over an
// interval with no ops (or no windows) is 0.
type Interval struct {
	Ops, Batches, PWBs, PFences, PFencesElided uint64
	Shed                                       uint64 // busy + draining
	PWBsPerOp, PFencesPerOp, OpsPerBatch       float64
}

// Since returns the interval from the earlier snapshot prev to s.
func (s Stats) Since(prev Stats) Interval {
	iv := Interval{
		Ops:           s.OpsServed - prev.OpsServed,
		Batches:       s.Batches - prev.Batches,
		PWBs:          s.PWBs - prev.PWBs,
		PFences:       s.PFences - prev.PFences,
		PFencesElided: s.PFencesElided - prev.PFencesElided,
		Shed:          s.ShedBusy + s.ShedDraining - (prev.ShedBusy + prev.ShedDraining),
	}
	if iv.Ops > 0 {
		iv.PWBsPerOp = float64(iv.PWBs) / float64(iv.Ops)
		iv.PFencesPerOp = float64(iv.PFences) / float64(iv.Ops)
	}
	if iv.Batches > 0 {
		iv.OpsPerBatch = float64(iv.Ops) / float64(iv.Batches)
	}
	return iv
}

// StatsMetrics is the STATS v2 summary block, distilled from the
// metric bundle's histograms at snapshot time. All values are
// cumulative since server start.
type StatsMetrics struct {
	Gets     uint64 `json:"gets"`
	Puts     uint64 `json:"puts"`
	Deletes  uint64 `json:"deletes"`
	Contains uint64 `json:"contains"`

	// Op service time quantiles across all op types (ns): each op's
	// equal share of its batch's announce-to-durable time.
	OpP50Ns int64 `json:"op_p50_ns"`
	OpP95Ns int64 `json:"op_p95_ns"`
	OpP99Ns int64 `json:"op_p99_ns"`
	OpMaxNs int64 `json:"op_max_ns"`

	// Group-commit shape: fence duration tail, ops-per-commit
	// distribution, mean fences per commit, pipeline window tail.
	CommitP99Ns        int64   `json:"commit_p99_ns"`
	BatchOpsP50        int64   `json:"batch_ops_p50"`
	BatchOpsP95        int64   `json:"batch_ops_p95"`
	FencesPerBatchMean float64 `json:"fences_per_batch_mean"`
	DepthP95           int64   `json:"depth_p95"`
}

// Server serves a FliT-Store over the wire protocol.
type Server struct {
	st   *store.Store
	opts Options

	// metrics is the observability bundle, nil when Options.Metrics is
	// unset — every hot-path record site gates on that nil.
	metrics    *Metrics
	batcherIDs atomic.Uint64 // counter stripe assignment
	epoch      time.Time     // fixed base for cheap monotonic time.Since reads

	// ops counts acknowledged store operations by kind, each batcher on
	// its own stripe; their sum is Stats.OpsServed.
	ops   [numOpKinds]metrics.Counter
	conns atomic.Uint64

	// Resilience state. The shed counters are striped (batchers write on
	// their own stripe); conn-level counters are plain atomics — they
	// tick at connection granularity, not op granularity.
	limiter       *resilience.Limiter
	draining      atomic.Bool
	connWG        sync.WaitGroup // live ServeConn handlers, drained by Shutdown
	inflight      atomic.Int64   // store ops currently inside Exec
	connsOpen     atomic.Int64   // currently served connections, the MaxConns cap's count
	connsRejected atomic.Uint64  // connections turned away at MaxConns
	shedBusy      metrics.Counter
	shedDraining  metrics.Counter
	connErrs      [numConnCauses]atomic.Uint64

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	open      map[net.Conn]struct{}
	closed    bool
}

// Connection failure causes for flit_conn_errors_total{cause=...} and
// Stats.ConnErrors. A clean EOF is not an error and is not counted.
const (
	causeFraming    = iota // malformed frame (protocol violation)
	causeReset             // transport error (peer reset, unexpected EOF)
	causeIdle              // idle-timeout reap at a pipeline head
	causeSlowReader        // write budget exceeded (stalled response reader)
	causePanic             // handler panic, isolated and recovered
	numConnCauses
)

// connCauseNames are the `cause` label values, indexed by cause.
var connCauseNames = [numConnCauses]string{"framing", "reset", "idle", "slow_reader", "panic"}

// New builds a server over st.
func New(st *store.Store, opts Options) *Server {
	s := &Server{
		st: st, opts: opts.withDefaults(),
		listeners: make(map[net.Listener]struct{}),
		open:      make(map[net.Conn]struct{}),
		epoch:     time.Now(),
	}
	s.limiter = resilience.NewLimiter(s.opts.RateLimit, s.opts.RateBurst)
	if s.opts.Metrics {
		s.metrics = newMetrics(st)
	}
	return s
}

// connError counts a failed connection once per cause and logs it once
// per connection with the remote address — the silent-hangup bug fix:
// framing errors and peer resets used to vanish without a trace.
func (s *Server) connError(c net.Conn, cause int, err error) {
	s.connErrs[cause].Add(1)
	if lg := s.opts.Logger; lg != nil {
		addr := "?"
		if ra := c.RemoteAddr(); ra != nil {
			addr = ra.String()
		}
		lg.Printf("server: conn %s: %s: %v", addr, connCauseNames[cause], err)
	}
}

// Stats snapshots the server counters. Safe to call from any goroutine
// at any time: every field is one of the server's atomics or the store
// combiner's account of its windows, copied under the combiner's lock.
func (s *Server) Stats() Stats {
	ws := s.st.WindowStats()
	var kinds [numOpKinds]uint64
	var ops uint64
	for k := range s.ops {
		kinds[k] = s.ops[k].Load()
		ops += kinds[k]
	}
	st := Stats{
		Version:   StatsVersion,
		Conns:     s.conns.Load(),
		ConnsOpen: s.connsOpen.Load(),
		OpsServed: ops,
		Batches:   ws.Windows,
		Drained:   ws.Drained,
		MaxBatch:  s.opts.MaxBatch,
		Shards:    s.st.NumShards(),
		Policy:    s.st.Opts().Policy,
		PWBs:      ws.PWBs,
		PFences:   ws.PFences,

		PFencesElided: ws.Elided,

		ShedBusy:      s.shedBusy.Load(),
		ShedDraining:  s.shedDraining.Load(),
		ConnsRejected: s.connsRejected.Load(),
		Draining:      s.draining.Load(),
	}
	for c := range s.connErrs {
		if n := s.connErrs[c].Load(); n > 0 {
			if st.ConnErrors == nil {
				st.ConnErrors = make(map[string]uint64, numConnCauses)
			}
			st.ConnErrors[connCauseNames[c]] = n
		}
	}
	if m := s.metrics; m != nil {
		var lat, commit, bops, bfences, depth metrics.HistSnapshot
		s.OpLatency(&lat)
		m.Commit.Read(&commit)
		m.BatchOps.Read(&bops)
		m.BatchFences.Read(&bfences)
		m.Depth.Read(&depth)
		st.Metrics = &StatsMetrics{
			Gets:     kinds[store.OpGet],
			Puts:     kinds[store.OpPut],
			Deletes:  kinds[store.OpDelete],
			Contains: kinds[store.OpContains],

			OpP50Ns: lat.Quantile(0.50),
			OpP95Ns: lat.Quantile(0.95),
			OpP99Ns: lat.Quantile(0.99),
			OpMaxNs: lat.MaxNs,

			CommitP99Ns:        commit.Quantile(0.99),
			BatchOpsP50:        bops.Quantile(0.50),
			BatchOpsP95:        bops.Quantile(0.95),
			FencesPerBatchMean: bfences.Mean(),
			DepthP95:           depth.Quantile(0.95),
		}
	}
	return st
}

// ErrClosed is returned by Serve after Close.
var ErrClosed = errors.New("server: closed")

// Serve accepts connections on ln until ln fails or the server is
// closed or draining, handling each connection on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.listeners, ln)
			s.mu.Unlock()
			if closed || s.draining.Load() {
				return ErrClosed
			}
			return err
		}
		go s.ServeConn(c)
	}
}

// Close stops all listeners and closes every open connection; each
// handler then withdraws its combiner slot on the way out.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	for c := range s.open {
		c.Close()
	}
	s.mu.Unlock()
	return nil
}

// Shutdown drains the server gracefully: it stops accepting, wakes every
// handler parked at a pipeline head (their next read fails immediately,
// and anything already buffered is answered DRAINING), lets in-flight
// batches finish their group commit and write their acks, then closes
// everything. If ctx expires first the remaining connections are cut
// hard (Close) and ctx's error is returned — but even then, no response
// was ever written before its batch's fence, so ack⇒persisted holds.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	for ln := range s.listeners {
		ln.Close()
	}
	wake := make([]net.Conn, 0, len(s.open))
	for c := range s.open {
		wake = append(wake, c)
	}
	s.mu.Unlock()
	// Expired read deadlines fail the blocking head read without
	// touching data already buffered — the handler answers that with
	// DRAINING on the way out.
	now := time.Now()
	for _, c := range wake {
		c.SetReadDeadline(now)
	}
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.Close()
		return nil
	case <-ctx.Done():
		s.Close()
		<-done
		return ctx.Err()
	}
}

// track registers c for Close and the drain waitgroup, returning false
// when the server is already closed or draining. The draining check
// under mu pairs with Shutdown's lock acquisition: every tracked
// connection is either woken by Shutdown or rejected here, so the
// waitgroup never gains handlers after the drain wait begins.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining.Load() {
		return false
	}
	s.open[c] = struct{}{}
	s.connWG.Add(1)
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.open, c)
	s.mu.Unlock()
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// ServeConn serves one connection until EOF, a protocol error, Close,
// or a resilience decision (idle reap, slow-reader budget, drain). It
// is exported so tests and in-process benchmarks can serve synthetic
// transports (net.Pipe) without a listener.
func (s *Server) ServeConn(nc net.Conn) {
	defer nc.Close()
	if !s.track(nc) {
		return
	}
	defer s.untrack(nc)
	defer s.connWG.Done()
	open := s.connsOpen.Add(1)
	if mc := s.opts.MaxConns; mc > 0 && open > int64(mc) {
		s.connsOpen.Add(-1)
		s.connsRejected.Add(1)
		// One unsolicited BUSY frame tells the client this was
		// admission control, not a crash; then hang up.
		if s.opts.WriteTimeout > 0 {
			nc.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
		}
		resp := Response{Status: StatusBusy, RetryAfterMs: 1}
		nc.Write(AppendResponse(nil, 0, &resp))
		return
	}
	defer s.connsOpen.Add(-1)
	s.conns.Add(1)
	n := s.opts.MaxBatch
	c := &conn{
		srv: s, nc: nc,
		br: bufio.NewReaderSize(nc, 4+MaxRequestLen), bw: bufio.NewWriterSize(nc, 64<<10),
		reqs: make([]Request, n), resps: make([]Response, n),
	}
	defer c.release()
	c.b = s.NewBatcher() // inside release's recover: a crashed store panics here
	c.serve()
}

// conn is one served connection: the transport and its buffered halves,
// the window's request/response slots, and the batcher executing them.
type conn struct {
	srv   *Server
	b     *Batcher
	nc    net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	reqs  []Request // len MaxBatch; resps[i] answers reqs[i]
	resps []Response
}

// release is ServeConn's deferred exit: it closes the batcher, withdrawing
// its combiner slot. Panic isolation lives here: a panic the window handed
// back to this connection (a store bug, a full heap) kills it alone, and
// after a pmem crash every handler lands here, acknowledging nothing.
func (c *conn) release() {
	if r := recover(); r != nil {
		c.srv.connError(c.nc, causePanic, fmt.Errorf("handler panic: %v", r))
	}
	if c.b != nil {
		c.b.Close()
	}
}

// serve runs the stage loop until the peer hangs up, a stage fails, or drain.
func (c *conn) serve() {
	s := c.srv
	for !s.draining.Load() {
		if d := s.opts.IdleTimeout; d > 0 {
			c.nc.SetReadDeadline(time.Now().Add(d))
		}
		n, storeOps, err := c.readWindow(true)
		if err != nil {
			c.readFailed(err)
			return
		}
		if c.admit(n, storeOps) {
			c.exec(n, storeOps)
		}
		if !c.writeResps(n) {
			return
		}
	}
	c.drainReject()
}

// readWindow decodes the next pipeline window into reqs[:n]: with block
// set it waits for the head, then it takes every whole frame already
// buffered (bufferedFrame: keys are decoded in place) — the group-commit
// window is "whatever the client managed to pipeline", capped at
// MaxBatch. storeOps counts the key-carrying requests.
//
//flit:hotpath
func (c *conn) readWindow(block bool) (n, storeOps int, err error) {
	for n < len(c.reqs) && (block && n == 0 || bufferedFrame(c.br, MaxRequestLen) != nil) {
		if err = ReadRequest(c.br, &c.reqs[n]); err != nil {
			return n, storeOps, err
		}
		if hasKey(c.reqs[n].Op) {
			storeOps++
		}
		n++
	}
	return n, storeOps, nil
}

// admit charges the window's store ops against the inflight cap (exec
// releases the charge) and the rate limiter. False means the window was
// shed: BUSY with a retry hint is already in resps and nothing may execute.
func (c *conn) admit(n, storeOps int) bool {
	s := c.srv
	if storeOps == 0 {
		return true
	}
	var retryMs uint32 // stays 0 when admitted
	if cur := s.inflight.Add(int64(storeOps)); s.opts.MaxInflight > 0 && cur > int64(s.opts.MaxInflight) {
		retryMs = 1
	} else if s.limiter != nil { // unconfigured: not even the clock read
		if ok, retry := s.limiter.Allow(int64(time.Since(s.epoch)), storeOps); !ok {
			retryMs = max(1, uint32((retry+time.Millisecond-1)/time.Millisecond))
		}
	}
	if retryMs == 0 {
		return true
	}
	s.inflight.Add(-int64(storeOps))
	c.reject(n, StatusBusy, retryMs, &s.shedBusy)
	return false
}

// exec runs an admitted window through the batcher — announce, durable
// on return, fill resps — and releases its inflight charge, also when
// the window hands this connection a panic.
func (c *conn) exec(n, storeOps int) {
	defer c.srv.inflight.Add(-int64(storeOps))
	c.b.Exec(c.reqs[:n], c.resps[:n])
}

// reject answers the window's store ops with status instead of executing
// them, counting each on shed; control ops are served regardless.
func (c *conn) reject(n int, status byte, retryMs uint32, shed *metrics.Counter) {
	for i := 0; i < n; i++ {
		if hasKey(c.reqs[i].Op) {
			c.resps[i] = Response{Status: status, RetryAfterMs: retryMs}
			shed.Inc(c.b.id)
		} else {
			c.srv.serveControl(c.reqs[i].Op, &c.resps[i])
		}
	}
}

// writeResps encodes resps[:n] straight into the writer's buffer and
// flushes, under the slow-reader budget. False means the connection is
// done: the write failed (counted here), or a StatusErr frame went out.
//
//flit:hotpath
func (c *conn) writeResps(n int) bool {
	c.armWriteBudget()
	var err error
	open := true
	for i := 0; i < n && err == nil; i++ {
		resp := &c.resps[i]
		if c.bw.Available() < 4+1+8+len(resp.Body) {
			c.bw.Flush() // keep the append below inside the buffer
		}
		_, err = c.bw.Write(AppendResponse(c.bw.AvailableBuffer(), c.reqs[i].Op, resp))
		open = open && resp.Status != StatusErr
	}
	if err == nil {
		if err = c.bw.Flush(); err == nil {
			return open
		}
	}
	cause := causeReset
	if isTimeout(err) {
		cause = causeSlowReader
	}
	c.srv.connError(c.nc, cause, err)
	return false
}

// armWriteBudget starts the slow-reader clock for one response batch.
func (c *conn) armWriteBudget() {
	if d := c.srv.opts.WriteTimeout; d > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(d))
	}
}

// drainReject answers every whole frame of the buffered pipeline, however
// many windows deep, with DRAINING (store ops; control ops are served) on
// the way out; a trailing partial frame is left unanswered.
func (c *conn) drainReject() {
	for {
		n, _, err := c.readWindow(false)
		if err != nil || n == 0 {
			return
		}
		c.reject(n, StatusDraining, 0, &c.srv.shedDraining)
		if !c.writeResps(n) {
			return
		}
	}
}

// readFailed classifies and accounts a request-read failure. A clean EOF
// is a normal hangup; a deadline expiry is the Shutdown wake-up (answer
// DRAINING) or the idle reaper; a malformed frame gets a best-effort
// StatusErr diagnostic (the stream offset is unreliable from there on);
// anything else — EOF inside a frame included — is transport loss.
func (c *conn) readFailed(err error) {
	s := c.srv
	switch {
	case err == io.EOF:
	case isTimeout(err):
		if s.draining.Load() {
			c.drainReject()
		} else {
			s.connError(c.nc, causeIdle, err)
		}
	case errors.Is(err, ErrMalformed):
		s.connError(c.nc, causeFraming, err)
		resp := Response{Status: StatusErr, Body: []byte(err.Error())}
		c.armWriteBudget()
		if _, werr := c.bw.Write(AppendResponse(c.bw.AvailableBuffer(), 0, &resp)); werr == nil {
			c.bw.Flush()
		}
	default:
		s.connError(c.nc, causeReset, err)
	}
}

// Batcher executes request batches through one Combined-mode store
// session, one announcement per batch. One per connection.
type Batcher struct {
	srv *Server
	cs  *store.Sess[[]byte]
	id  int // counter stripe (stable per batcher)

	hops []store.HashedOp // the batch's store requests, and their results
	res  []store.Result
}

// NewBatcher opens a batch executor: a Combined session, registering a
// slot at the store's combiner. It panics pmem.ErrCrashed on a crashed one.
func (s *Server) NewBatcher() *Batcher {
	return &Batcher{
		srv: s,
		cs:  store.Open[[]byte](s.st, store.Combined),
		id:  int(s.batcherIDs.Add(1) - 1),
	}
}

// Close withdraws the batcher's combiner slot. Idempotent.
func (b *Batcher) Close() { b.cs.Close() }

// Exec executes one pipeline batch: its store requests, hashed from
// req.Key in pipeline order (so same-key requests stay ordered), are one
// ApplyHashed — one slot of a combiner window, durable on return — before
// any response is materialized. Commit is the session API's durability
// point, a no-op for a Combined session (see flitvet's ackorder).
// resps[i] answers reqs[i]; lengths match.
func (b *Batcher) Exec(reqs []Request, resps []Response) {
	m := b.srv.metrics
	b.hops = b.hops[:0]
	var kindN [numOpKinds]uint64
	for i := range reqs {
		if req := &reqs[i]; hasKey(req.Op) {
			k := storeKind(req.Op)
			kindN[k]++
			b.hops = append(b.hops, store.HashedOp{Kind: k, H: store.HashKeyBytes(req.Key), Val: req.Val})
		}
	}
	if len(b.res) < len(b.hops) {
		b.res = make([]store.Result, cap(resps))
	}
	// With metrics on, two clock reads per batch, around the announcement:
	// the batch's commit time, of which each op is charged an equal share.
	// time.Since on a fixed epoch is the monotonic-only path.
	var t0 time.Duration
	if m != nil {
		m.Depth.RecordNs(int64(len(reqs)))
		t0 = time.Since(b.srv.epoch)
	}
	if storeOps := len(b.hops); storeOps > 0 { // pure PING/STATS announces nothing
		b.cs.ApplyHashed(b.hops, b.res)
		b.cs.Commit()
		var share int64
		if m != nil {
			d := int64(time.Since(b.srv.epoch) - t0)
			m.Commit.RecordNs(d)
			share = d / int64(storeOps)
		}
		for k, n := range kindN {
			if n > 0 {
				b.srv.ops[k].Add(b.id, n)
				if m != nil {
					m.Lat[k].RecordNNs(share, n)
				}
			}
		}
	}
	// Only now do the batch's results exist as far as any client can
	// observe; a STATS in the window counts the window.
	j := 0
	for i := range reqs {
		req, resp := &reqs[i], &resps[i]
		if !hasKey(req.Op) {
			b.srv.serveControl(req.Op, resp)
			continue
		}
		r := b.res[j]
		j++
		resp.Status, resp.Val, resp.Flag, resp.Body = StatusOK, 0, r.Ok, nil
		if req.Op == OpGet {
			resp.Val, resp.Flag = r.Val, false
			if !r.Ok {
				resp.Status = StatusNotFound
			}
		}
	}
}

// serveControl answers a PING or STATS request. Control traffic is
// always served — even while store ops are being shed or drained, it is
// how clients find out what is happening.
func (s *Server) serveControl(op byte, resp *Response) {
	resp.Status, resp.Val, resp.Flag, resp.Body, resp.RetryAfterMs = StatusOK, 0, false, nil, 0
	switch op {
	case OpPing:
	case OpStats:
		body, err := json.Marshal(s.Stats())
		if err != nil {
			resp.Status = StatusErr
			resp.Body = []byte(err.Error())
			break
		}
		resp.Body = body
	default:
		// Unreachable from the wire (ReadRequest rejects unknown
		// opcodes before Exec); guards direct Exec callers.
		resp.Status = StatusErr
		resp.Body = []byte(fmt.Sprintf("unknown opcode %d", op))
	}
}
