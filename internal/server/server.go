// Package server is the network front-end of FliT-Store: a pipelined
// binary protocol (see protocol.go) whose request path is built around
// group-commit durability batching.
//
// Every connection is served by one goroutine owning one Batched-mode
// store session. The handler drains the connection's pipeline —
// everything already buffered, up to Options.MaxBatch — into a batch,
// groups the batch per shard (stable order, so same-key requests keep
// their pipeline order), executes it with persistence deferred
// (core.Deferred), issues ONE fence for the whole batch via the
// coalescing write-back queue, and only then writes the responses. The
// ack rule is the durable-linearizability contract: a response frame
// exists only for operations whose effects a single shared PFence has
// already persisted, so "acknowledged ⇒ persisted" holds at every crash
// point — verified systematically by the batched dlcheck battery
// (internal/crashtest.RunStoreDL in store.Batched mode).
//
// Compared with per-operation persistence, the batch pays one completion
// fence per pipeline instead of one per op, and its deferred stores
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
	Batches   uint64 `json:"batches"`    // group commits issued
	Drained   uint64 `json:"drained"`    // lines drained by group commits
	MaxBatch  int    `json:"max_batch"`

	Shards int    `json:"shards"`
	Policy string `json:"policy"`

	PWBs    uint64 `json:"pwbs"`    // PWB instructions issued serving requests
	PFences uint64 `json:"pfences"` // PFence instructions issued serving requests

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

// admit charges a batch of storeOps against the inflight cap and the
// rate limiter. shed=true means answer BUSY (retry after retryMs) and
// execute nothing; otherwise the ops are charged to inflight and the
// caller must release them after Exec.
func (s *Server) admit(storeOps int) (shed bool, retryMs uint32) {
	n := int64(storeOps)
	cur := s.inflight.Add(n)
	if mi := s.opts.MaxInflight; mi > 0 && cur > int64(mi) {
		s.inflight.Add(-n)
		return true, 1
	}
	if ok, retry := s.limiter.Allow(int64(time.Since(s.epoch)), storeOps); !ok {
		s.inflight.Add(-n)
		ms := uint32((retry + time.Millisecond - 1) / time.Millisecond)
		if ms == 0 {
			ms = 1
		}
		return true, ms
	}
	return false, 0
}

// commitQuietly clears a batcher's possibly-deferred state after a
// handler panic, reporting whether the session survived. Committing
// applied-but-unacked effects is linearizable (the client never got a
// response, so either outcome is a legal crash point); a session whose
// commit itself panics is poisoned and must not be pooled.
func commitQuietly(b *Batcher) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	b.bs.Commit()
	return true
}

// ServeConn serves one connection until EOF, a protocol error, Close,
// or a resilience decision (idle reap, slow-reader budget, drain). It
// is exported so tests and in-process benchmarks can serve synthetic
// transports (net.Pipe) without a listener.
func (s *Server) ServeConn(c net.Conn) {
	defer c.Close()
	if !s.track(c) {
		return
	}
	defer s.untrack(c)
	defer s.connWG.Done()
	if mc := s.opts.MaxConns; mc > 0 {
		if s.connsOpen.Add(1) > int64(mc) {
			s.connsOpen.Add(-1)
			s.connsRejected.Add(1)
			// One unsolicited BUSY frame tells the client this was
			// admission control, not a crash; then hang up.
			if s.opts.WriteTimeout > 0 {
				c.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
			}
			resp := Response{Status: StatusBusy, RetryAfterMs: 1}
			c.Write(AppendResponse(nil, 0, &resp))
			return
		}
		defer s.connsOpen.Add(-1)
	}
	s.conns.Add(1)
	if m := s.metrics; m != nil {
		m.ConnsOpen.Add(1)
		defer m.ConnsOpen.Add(-1)
	}

	b := s.getBatcher()
	// Panic isolation: one connection's failure (a store bug, an
	// injected crash) must not take the process down or poison the
	// batcher pool. The batcher returns to the pool only if its session
	// still commits cleanly; a poisoned one is closed instead, returning
	// its thread, arena and reclamation slots to the store's registries.
	defer func() {
		if r := recover(); r != nil {
			s.connError(c, causePanic, fmt.Errorf("handler panic: %v", r))
			if commitQuietly(b) {
				s.putBatcher(b)
			} else {
				b.Close()
			}
			return
		}
		s.putBatcher(b)
	}()

	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	reqs := make([]Request, s.opts.MaxBatch)
	resps := make([]Response, s.opts.MaxBatch)
	var out []byte
	// bail answers a malformed request with a best-effort StatusErr
	// frame (the diagnostic the protocol promises) before the deferred
	// Close hangs up; after a framing error the stream offset is
	// unreliable, so the connection cannot continue either way.
	bail := func(err error) {
		if err == nil || err == io.EOF {
			return
		}
		resp := Response{Status: StatusErr, Body: []byte(err.Error())}
		if _, werr := bw.Write(AppendResponse(nil, 0, &resp)); werr == nil {
			bw.Flush()
		}
	}
	// writeResps ships resps[:n] under the slow-reader budget; a false
	// return means the connection is done (already counted and logged).
	writeResps := func(n int) bool {
		out = out[:0]
		for i := 0; i < n; i++ {
			out = AppendResponse(out, reqs[i].Op, &resps[i])
		}
		if s.opts.WriteTimeout > 0 {
			c.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
		}
		_, err := bw.Write(out)
		if err == nil {
			err = bw.Flush()
		}
		if err == nil {
			return true
		}
		if isTimeout(err) {
			s.connError(c, causeSlowReader, err)
		} else {
			s.connError(c, causeReset, err)
		}
		return false
	}
	// drainReject answers whatever the client already pipelined with
	// DRAINING (store ops; control ops are served) on the way out — the
	// whole buffered pipeline, however many batch windows deep.
	drainReject := func() {
		for br.Buffered() > 0 {
			n := 0
			for n < s.opts.MaxBatch && br.Buffered() > 0 {
				if err := ReadRequest(br, &reqs[n]); err != nil {
					return
				}
				n++
			}
			for i := 0; i < n; i++ {
				if hasKey(reqs[i].Op) {
					resps[i] = Response{Status: StatusDraining}
					s.shedDraining.Inc(b.id)
				} else {
					s.serveControl(reqs[i].Op, &resps[i])
				}
			}
			if !writeResps(n) {
				return
			}
		}
	}
	// readFailed classifies and accounts a request-read failure. A clean
	// EOF is a normal hangup; a deadline expiry is either the Shutdown
	// wake-up (answer DRAINING) or the idle reaper; a malformed frame
	// gets the best-effort diagnostic; anything else is transport loss.
	readFailed := func(err error) {
		switch {
		case err == io.EOF:
		case isTimeout(err):
			if s.draining.Load() {
				drainReject()
			} else {
				s.connError(c, causeIdle, err)
			}
		case errors.Is(err, ErrMalformed):
			s.connError(c, causeFraming, err)
			bail(err)
		default:
			s.connError(c, causeReset, err)
		}
	}
	for {
		if s.draining.Load() {
			drainReject()
			return
		}
		if s.opts.IdleTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		}
		// Block for the pipeline's head, then drain what is already
		// buffered — the group-commit window is "whatever the client
		// managed to pipeline", capped at MaxBatch.
		if err := ReadRequest(br, &reqs[0]); err != nil {
			readFailed(err)
			return
		}
		n := 1
		for n < s.opts.MaxBatch && br.Buffered() > 0 {
			if err := ReadRequest(br, &reqs[n]); err != nil {
				readFailed(err)
				return
			}
			n++
		}
		storeOps := 0
		for i := 0; i < n; i++ {
			if hasKey(reqs[i].Op) {
				storeOps++
			}
		}
		if storeOps > 0 {
			if shed, retryMs := s.admit(storeOps); shed {
				for i := 0; i < n; i++ {
					if hasKey(reqs[i].Op) {
						resps[i] = Response{Status: StatusBusy, RetryAfterMs: retryMs}
						s.shedBusy.Inc(b.id)
					} else {
						s.serveControl(reqs[i].Op, &resps[i])
					}
				}
				if !writeResps(n) {
					return
				}
				continue
			}
			b.Exec(reqs[:n], resps[:n])
			s.inflight.Add(-int64(storeOps))
		} else {
			b.Exec(reqs[:n], resps[:n])
		}
		if !writeResps(n) {
			return
		}
		for i := 0; i < n; i++ {
			if resps[i].Status == StatusErr {
				return // protocol error: answered, then hang up
			}
		}
	}
}

// Batcher executes request batches against one Batched-mode store
// session with group commit. One per connection (it is as single-goroutine as the session
// it wraps); also the entry point the crash batteries drive directly,
// bypassing sockets.
type Batcher struct {
	srv  *Server
	bs   *store.Sess[[]byte]
	bySh [][]int // per-shard request indices, reused across batches
	id   int     // metrics counter stripe (stable per batcher)
}

// NewBatcher registers a new batch executor (one Batched-mode session).
func (s *Server) NewBatcher() *Batcher {
	return &Batcher{
		srv:  s,
		bs:   store.Open[[]byte](s.st, store.Batched),
		bySh: make([][]int, s.st.NumShards()),
		id:   int(s.batcherIDs.Add(1) - 1),
	}
}

// getBatcher reuses a pooled batcher or registers a new one. A batcher
// leaves the pool fully committed (every Exec ends in Commit), so
// handing it to the next connection carries no deferred state.
func (s *Server) getBatcher() *Batcher {
	s.idleMu.Lock()
	defer s.idleMu.Unlock()
	if n := len(s.idle); n > 0 {
		b := s.idle[n-1]
		s.idle = s.idle[:n-1]
		return b
	}
	return s.NewBatcher()
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

// Session exposes the underlying batch session (crash injection,
// stats).
func (b *Batcher) Session() *store.Sess[[]byte] { return b.bs }

// Close releases the batcher's session (thread, arena, reclamation
// slots). Called when the batcher leaves service — a poisoned session
// after a handler panic, or pool drain at server close. Idempotent.
func (b *Batcher) Close() { b.bs.Close() }

// Exec executes one pipeline batch: requests are grouped per shard in
// stable order (same-key requests keep their pipeline order — one key
// always maps to one shard), executed with persistence deferred, and
// committed under a single fence before any response is materialized.
// resps[i] answers reqs[i]; len(resps) must equal len(reqs).
func (b *Batcher) Exec(reqs []Request, resps []Response) {
	st := b.srv.st
	m := b.srv.metrics
	// The session thread's counters are single-goroutine state only this
	// batcher reads; each batch folds its own delta into the server
	// atomics. The baseline is re-read per batch, not remembered across
	// batches, so a Memory.ResetStats in between cannot unseat it.
	ts := &b.bs.Thread().Stats
	pwbs0, pfences0 := ts.PWBs, ts.PFences
	// Capture the shard count once per batch: an online split can swap
	// the store layout mid-loop, and same-key requests must group under
	// ONE index to keep their pipeline order. The grouping is a locality
	// heuristic — the session routes each key correctly regardless — so a
	// count one split stale is harmless; it just groups by the old map.
	nsh := uint64(st.NumShards())
	if int(nsh) > len(b.bySh) {
		b.bySh = append(b.bySh, make([][]int, int(nsh)-len(b.bySh))...)
	}
	for i := range b.bySh {
		b.bySh[i] = b.bySh[i][:0]
	}
	storeOps := 0
	var kindN [numOpKinds]uint64
	for i := range reqs {
		if hasKey(reqs[i].Op) {
			sh := store.HashKeyBytes(reqs[i].Key) % nsh
			b.bySh[sh] = append(b.bySh[sh], i)
			kindN[opKind(reqs[i].Op)]++
			storeOps++
		}
	}
	// With metrics on, service time is measured at batch granularity:
	// three clock reads per Exec — [t0,t1) brackets the execution loop
	// and is attributed to the batch's store ops in equal shares, and
	// [t1,t2) after Commit is the group-commit duration. A clock read
	// per op would cost more than a simulated store op does (time.Now
	// runs ~70ns on hosts without fast vdso paths), so the per-op
	// histograms record each op's share of its batch window instead of
	// an individually-timed span; across many batches of varying
	// composition the per-type distributions still separate. Durations
	// come from time.Since on a fixed epoch — the monotonic-only path,
	// about half the cost of time.Now.
	var t0 time.Duration
	if m != nil {
		m.Depth.RecordNs(int64(len(reqs)))
		if storeOps > 0 {
			t0 = time.Since(b.srv.epoch)
		}
	}
	for _, idxs := range b.bySh {
		for _, i := range idxs {
			req, resp := &reqs[i], &resps[i]
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
	}
	// The group commit: after this fence — and only after it — the
	// batch's results exist as far as any client can observe. A batch of
	// pure PING/STATS frames touched nothing and commits nothing.
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
	// Non-store opcodes are answered after the commit, preserving
	// response order.
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
