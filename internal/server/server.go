// Package server is the network front-end of FliT-Store: a pipelined
// binary protocol (see protocol.go) whose request path is built around
// group-commit durability batching.
//
// Every connection is served by one goroutine owning one conn: buffered
// reader and writer, MaxBatch request/response slots and a pooled Batcher
// (one Batched-mode store session). It runs four stages per
// window: readWindow decodes everything the client already pipelined, up to
// Options.MaxBatch; admit charges it to admission control; exec runs it
// through Batcher.Exec; writeResps encodes the answers straight into the
// writer's buffer and flushes. Exec is one allocation-free pass in pipeline
// order (same-key requests keep their order trivially): each key is hashed
// once, by the session call that executes it with persistence deferred
// (core.Deferred), and the whole window commits under ONE fence
// via the coalescing write-back queue before any response exists — or
// under none, when the window left nothing on the queue (a window of
// Gets that saw no flit-tag). The ack rule is the durable-linearizability
// contract: a response frame exists only for operations whose effects
// are already persisted, so "acknowledged ⇒ persisted" holds at every
// crash point — verified systematically by the batched dlcheck battery
// (internal/crashtest.RunStoreDL in store.Batched mode).
//
// Compared with per-operation persistence, the batch pays at most one
// completion fence per pipeline instead of one per op, and its deferred stores
// coalesce repeated flushes of hot lines — the fence- and
// flush-amortization of flat-combining persistent designs, applied at
// the service boundary.
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
	// Metrics enables the observability layer (see metrics.go): per-op
	// latency histograms, striped op counters, batch-shape histograms,
	// the /metrics exposition page's histogram families, the STATS v2
	// summary and the timeseries sampler. Off, the hot path pays one
	// nil check per batch and those consumers degrade gracefully.
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
	// disconnected rather than wedging its handler goroutine (each
	// connection commits its own batches, so a wedged writer would
	// otherwise hold a batcher session hostage, not just itself).
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
// opcode's JSON body. The instruction counts cover the server's request
// execution (each batcher folds its own thread's deltas into server
// atomics after every batch — never a racy walk of live per-thread
// counters), so pwbs/acked-op over a window is ΔPWBs/ΔOpsServed.
type Stats struct {
	Version   int    `json:"v"`          // StatsVersion of the emitting server
	Conns     uint64 `json:"conns"`      // connections accepted
	OpsServed uint64 `json:"ops_served"` // store ops acknowledged
	Batches   uint64 `json:"batches"`    // group commits, fenced or elided
	Drained   uint64 `json:"drained"`    // lines drained by group commits
	MaxBatch  int    `json:"max_batch"`

	Shards int    `json:"shards"`
	Policy string `json:"policy"`

	PWBs    uint64 `json:"pwbs"`    // PWB instructions issued serving requests
	PFences uint64 `json:"pfences"` // PFence instructions issued serving requests
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

// StatsMetrics is the STATS v2 summary block, distilled from the
// metric bundle's histograms at snapshot time. All values are
// cumulative since server start.
type StatsMetrics struct {
	Gets     uint64 `json:"gets"`
	Puts     uint64 `json:"puts"`
	Deletes  uint64 `json:"deletes"`
	Contains uint64 `json:"contains"`

	// Op service time quantiles across all op types (ns); the batch
	// execution time of an op, excluding the shared group-commit fence.
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

	conns     atomic.Uint64
	opsServed atomic.Uint64
	batches   atomic.Uint64
	drained   atomic.Uint64
	pwbs      atomic.Uint64
	pfences   atomic.Uint64
	elided    atomic.Uint64 // dependency fences not issued (Stats.PFencesElided)

	// Resilience state. The shed counters are striped (batchers write on
	// their own stripe); conn-level counters are plain atomics — they
	// tick at connection granularity, not op granularity.
	limiter       *resilience.Limiter
	draining      atomic.Bool
	connWG        sync.WaitGroup // live ServeConn handlers, drained by Shutdown
	inflight      atomic.Int64   // store ops currently inside Exec
	connsOpen     atomic.Int64   // currently served connections (MaxConns)
	connsRejected atomic.Uint64  // connections turned away at MaxConns
	shedBusy      metrics.Counter
	shedDraining  metrics.Counter
	connErrs      [numConnCauses]atomic.Uint64

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	open      map[net.Conn]struct{}
	closed    bool

	// idle pools batchers for reuse across connections. Sessions release
	// their pmem thread, arena and reclamation slots on Close, so pooling
	// is a throughput optimization (no per-connection session setup), not
	// a leak-prevention necessity; the pool is drained — every batcher
	// closed — when the server closes.
	idleMu sync.Mutex
	idle   []*Batcher
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
		s.metrics = NewMetrics()
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

// Store returns the served store.
func (s *Server) Store() *store.Store { return s.st }

// Stats snapshots the server counters. Safe to call from any goroutine
// at any time: every field is an atomic the batchers publish into —
// reading the live per-thread instruction counters here would race with
// the connection goroutines incrementing them.
func (s *Server) Stats() Stats {
	st := Stats{
		Version:   StatsVersion,
		Conns:     s.conns.Load(),
		OpsServed: s.opsServed.Load(),
		Batches:   s.batches.Load(),
		Drained:   s.drained.Load(),
		MaxBatch:  s.opts.MaxBatch,
		Shards:    s.st.NumShards(),
		Policy:    s.st.Opts().Policy,
		PWBs:      s.pwbs.Load(),
		PFences:   s.pfences.Load(),

		PFencesElided: s.elided.Load(),

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
		m.LatSnapshot(&lat)
		m.Commit.Read(&commit)
		m.BatchOps.Read(&bops)
		m.BatchFences.Read(&bfences)
		m.Depth.Read(&depth)
		st.Metrics = &StatsMetrics{
			Gets:     m.Ops[kindGet].Load(),
			Puts:     m.Ops[kindPut].Load(),
			Deletes:  m.Ops[kindDelete].Load(),
			Contains: m.Ops[kindContains].Load(),

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

// Close stops all listeners, closes every open connection, and drains
// the batcher pool — every idle session's thread, arena and reclamation
// slots return to the store's registries.
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
	s.idleMu.Lock()
	idle := s.idle
	s.idle = nil
	s.idleMu.Unlock()
	for _, b := range idle {
		b.Close()
	}
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

// commitQuietly clears a batcher's possibly-deferred state after a
// handler panic, reporting whether the session survived. Committing
// applied-but-unacked effects is linearizable (the client never got a
// response, so either outcome is a legal crash point); a session whose
// commit itself panics is poisoned and must not be pooled.
func commitQuietly(b *Batcher) (ok bool) {
	defer func() { ok = recover() == nil }()
	b.bs.Commit()
	return true
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
	if mc := s.opts.MaxConns; mc > 0 {
		if s.connsOpen.Add(1) > int64(mc) {
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
	}
	s.conns.Add(1)
	if m := s.metrics; m != nil {
		m.ConnsOpen.Add(1)
		defer m.ConnsOpen.Add(-1)
	}
	n := s.opts.MaxBatch
	c := &conn{
		b: s.getBatcher(), nc: nc,
		br: bufio.NewReaderSize(nc, 64<<10), bw: bufio.NewWriterSize(nc, 64<<10),
		reqs: make([]Request, n), resps: make([]Response, n),
	}
	defer c.release()
	c.serve()
}

// conn is one served connection: the transport and its buffered halves,
// the window's request/response slots, and the batcher executing them.
type conn struct {
	b     *Batcher
	nc    net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	reqs  []Request // len MaxBatch; resps[i] answers reqs[i]
	resps []Response
}

// release is ServeConn's deferred exit: it returns the batcher to the pool.
// Panic isolation lives here — one connection's failure (a store bug, an
// injected crash) must not take the process down or poison the pool, so a
// batcher whose session no longer commits cleanly is closed instead.
func (c *conn) release() {
	if r := recover(); r != nil {
		c.b.srv.connError(c.nc, causePanic, fmt.Errorf("handler panic: %v", r))
		if !commitQuietly(c.b) {
			c.b.Close()
			return
		}
	}
	c.b.srv.putBatcher(c.b)
}

// serve runs the stage loop until the peer hangs up, a stage fails, or drain.
func (c *conn) serve() {
	s := c.b.srv
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
// set it waits for the head, then it takes what is already buffered — the
// group-commit window is "whatever the client managed to pipeline", capped
// at MaxBatch. storeOps counts the key-carrying requests.
//
//flit:hotpath
func (c *conn) readWindow(block bool) (n, storeOps int, err error) {
	for n < len(c.reqs) && (c.br.Buffered() > 0 || block && n == 0) {
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
	s := c.b.srv
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

// exec runs an admitted window through the batcher — execute, one group
// commit, fill resps — and releases its inflight charge.
func (c *conn) exec(n, storeOps int) {
	c.b.Exec(c.reqs[:n], c.resps[:n])
	c.b.srv.inflight.Add(-int64(storeOps))
}

// reject answers the window's store ops with status instead of executing
// them, counting each on shed; control ops are served regardless.
func (c *conn) reject(n int, status byte, retryMs uint32, shed *metrics.Counter) {
	for i := 0; i < n; i++ {
		if hasKey(c.reqs[i].Op) {
			c.resps[i] = Response{Status: status, RetryAfterMs: retryMs}
			shed.Inc(c.b.id)
		} else {
			c.b.srv.serveControl(c.reqs[i].Op, &c.resps[i])
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
	c.b.srv.connError(c.nc, cause, err)
	return false
}

// armWriteBudget starts the slow-reader clock for one response batch.
func (c *conn) armWriteBudget() {
	if d := c.b.srv.opts.WriteTimeout; d > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(d))
	}
}

// drainReject answers the whole buffered pipeline, however many windows
// deep, with DRAINING (store ops; control ops are served) on the way out.
func (c *conn) drainReject() {
	for c.br.Buffered() > 0 {
		n, _, err := c.readWindow(false)
		if err != nil {
			return
		}
		c.reject(n, StatusDraining, 0, &c.b.srv.shedDraining)
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
	s := c.b.srv
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

// Batcher executes request batches against one Batched-mode store
// session with group commit. One per connection (as single-goroutine as
// the session it wraps); also what the crash batteries drive, socket-free.
type Batcher struct {
	srv *Server
	bs  *store.Sess[[]byte]
	id  int // metrics counter stripe (stable per batcher)
}

// NewBatcher registers a new batch executor (one Batched-mode session).
func (s *Server) NewBatcher() *Batcher {
	return &Batcher{
		srv: s,
		bs:  store.Open[[]byte](s.st, store.Batched),
		id:  int(s.batcherIDs.Add(1) - 1),
	}
}

// getBatcher reuses a pooled batcher (fully committed: every Exec ends in
// Commit) or registers a new one. Only the pop is under idleMu: building a
// session (thread registration, a handle per shard) must not stall
// concurrent accepts and putBatcher.
func (s *Server) getBatcher() *Batcher {
	var b *Batcher
	s.idleMu.Lock()
	if n := len(s.idle); n > 0 {
		b, s.idle = s.idle[n-1], s.idle[:n-1]
	}
	s.idleMu.Unlock()
	if b == nil {
		b = s.NewBatcher()
	}
	return b
}

func (s *Server) putBatcher(b *Batcher) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		// The pool was already drained; close rather than re-pool. (A
		// batcher racing past this check into a drained pool is merely
		// parked until process exit, not a growing leak.)
		b.Close()
		return
	}
	s.idleMu.Lock()
	s.idle = append(s.idle, b)
	s.idleMu.Unlock()
}

// Close releases the batcher's session (thread, arena, reclamation
// slots). Called when the batcher leaves service — a poisoned session
// after a handler panic, or pool drain at server close. Idempotent.
func (b *Batcher) Close() { b.bs.Close() }

// Exec executes one pipeline batch in one pass, in pipeline order (so
// same-key requests stay ordered with no grouping at all): each op runs
// through its session call — the one place its key is hashed — with
// persistence deferred, and the batch commits under a single fence before
// any response is materialized. resps[i] answers reqs[i]; lengths match.
func (b *Batcher) Exec(reqs []Request, resps []Response) {
	m := b.srv.metrics
	// The session thread's counters are single-goroutine state only this
	// batcher reads; each batch folds its own delta into the server atomics.
	// The baseline is re-read per batch, so a ResetStats cannot unseat it.
	ts := &b.bs.Thread().Stats
	pwbs0, pfences0, elided0 := ts.PWBs, ts.PFences, ts.ElidedFences
	// With metrics on, service time is measured at batch granularity —
	// three clock reads per Exec, since one per op would cost more than a
	// simulated store op does: [t0,t1) brackets the execution loop and is
	// attributed to the batch's store ops in equal shares, [t1,t2) after
	// Commit is the group-commit duration. Durations come from time.Since
	// on a fixed epoch, the monotonic-only path at half time.Now's cost.
	var t0 time.Duration
	if m != nil {
		m.Depth.RecordNs(int64(len(reqs)))
		t0 = time.Since(b.srv.epoch)
	}
	storeOps := 0
	var kindN [numOpKinds]uint64
	for i := range reqs {
		req, resp := &reqs[i], &resps[i]
		if !hasKey(req.Op) {
			continue
		}
		kindN[opKind(req.Op)]++
		storeOps++
		resp.Status, resp.Val, resp.Flag, resp.Body = StatusOK, 0, false, nil
		switch req.Op {
		case OpGet:
			v, ok := b.bs.Get(req.Key)
			if ok {
				resp.Val = v
			} else {
				resp.Status = StatusNotFound
			}
		case OpPut:
			resp.Flag = b.bs.Put(req.Key, req.Val)
		case OpDelete:
			resp.Flag = b.bs.Delete(req.Key)
		case OpContains:
			resp.Flag = b.bs.Contains(req.Key)
		}
	}
	// The group commit: only after it do the batch's results exist as far
	// as any client can observe. It is one fence, or none when the batch
	// left nothing pending (core.Deferred.Flush). Pure PING/STATS commits
	// nothing.
	if storeOps > 0 {
		var t1 time.Duration
		if m != nil {
			t1 = time.Since(b.srv.epoch)
		}
		drained := b.bs.Commit()
		b.srv.batches.Add(1)
		b.srv.opsServed.Add(uint64(storeOps))
		b.srv.drained.Add(uint64(drained))
		pfences := ts.PFences - pfences0
		b.srv.pwbs.Add(ts.PWBs - pwbs0)
		b.srv.pfences.Add(pfences)
		if elided := ts.ElidedFences - elided0; elided != 0 { // an empty commit, or a Delete's CASes
			b.srv.elided.Add(elided)
		}
		if m != nil {
			m.Commit.RecordNs(int64(time.Since(b.srv.epoch) - t1))
			share := int64(t1-t0) / int64(storeOps)
			for k, n := range kindN {
				if n > 0 {
					m.Lat[k].RecordNNs(share, n)
					m.Ops[k].Add(b.id, n)
				}
			}
			m.BatchOps.RecordNs(int64(storeOps))
			m.BatchFences.RecordNs(int64(pfences))
		}
	}
	// Non-store opcodes are answered after the commit (a STATS in the
	// window then counts the window); slots keep the response order.
	for i := range reqs {
		if !hasKey(reqs[i].Op) {
			b.srv.serveControl(reqs[i].Op, &resps[i])
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
