package client

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"flit/internal/metrics"
	"flit/internal/server"
	"flit/internal/workload"
)

// Spec describes one timed load-generation run against a flitstored
// server: a YCSB mix over pipelined connections.
//
// Closed loop (Rate == 0): each connection keeps a pipeline window of
// Depth request frames outstanding — send the window, flush once (so
// the server group-commits the whole window), read it back, repeat.
// Latency is the client-observed window round trip per operation.
//
// Open loop (Rate > 0): operations arrive on a fixed schedule at Rate
// ops/s total, split evenly across connections, regardless of how fast
// responses return. Latency is measured from the scheduled arrival, so
// queueing delay under overload is charged to the server — the
// coordinated-omission-free spelling, matching the workload runner's
// open-loop mode.
type Spec struct {
	Mix     string
	Dist    string
	ZipfS   float64
	Records uint64
	ScanMax int

	Conns    int           // parallel connections (default 1)
	Depth    int           // closed-loop pipeline frames per conn (default 1)
	Rate     float64       // open-loop total ops/s; 0 selects closed loop
	Duration time.Duration // measured window
	Seed     int64

	// MaxInflight caps outstanding request frames per open-loop
	// connection (default 1024). When the schedule outruns the server,
	// arrivals over the cap are DROPPED and counted (Result.Dropped)
	// instead of queueing unboundedly — the open loop honors
	// backpressure the way a real ingress would, rather than modeling an
	// infinite client-side buffer. Closed loop is inherently bounded by
	// Depth and ignores this.
	MaxInflight int

	// Progress, when set, is called about once per ProgressEvery
	// (default 1s) from a monitor goroutine with a live snapshot of the
	// run. The workers record into one shared lock-free histogram
	// (internal/metrics), so the monitor reads without stopping them.
	Progress      func(Progress)
	ProgressEvery time.Duration
}

// Progress is one live snapshot of a running load generation, delivered
// to Spec.Progress. Ops is cumulative; the rate and quantiles cover the
// interval since the previous callback.
type Progress struct {
	Elapsed   time.Duration // since the measured window opened
	Ops       uint64        // operations completed so far
	OpsPerSec float64       // interval throughput
	P50       time.Duration // interval client-observed latency
	P99       time.Duration
}

// Result aggregates one run: client-observed throughput and latency,
// plus the server-side instruction deltas (via STATS) that make the
// group-commit amortization visible — PWBs and fences per acknowledged
// operation.
type Result struct {
	Mix     string        `json:"mix"`
	Dist    string        `json:"dist"`
	Conns   int           `json:"conns"`
	Depth   int           `json:"depth"`
	Rate    float64       `json:"rate,omitempty"`
	Elapsed time.Duration `json:"elapsed_ns"`

	Ops       uint64  `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`

	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
	Max time.Duration `json:"max_ns"`

	Reads   uint64 `json:"reads"`
	Updates uint64 `json:"updates"`
	Inserts uint64 `json:"inserts"`
	RMWs    uint64 `json:"rmws"`
	Scans   uint64 `json:"scans"`

	// Backpressure accounting. Ops/OpsPerSec count only completed
	// operations, so OpsPerSec is the goodput; Shed counts operations
	// the server rejected with BUSY/DRAINING (per-op, never recorded in
	// the latency histogram), Dropped counts open-loop arrivals the
	// client never sent because the inflight cap was hit, and ShedRate
	// is Shed/(Ops+Shed). ServerShed is the server's own shed counter
	// delta over the window — the two sides must agree within the final
	// pipeline round.
	Shed       uint64  `json:"shed,omitempty"`
	Dropped    uint64  `json:"dropped,omitempty"`
	ShedRate   float64 `json:"shed_rate,omitempty"`
	ServerShed uint64  `json:"server_shed,omitempty"`

	// Server-side deltas over the run window.
	ServerOps     uint64  `json:"server_ops"`
	ServerBatches uint64  `json:"server_batches"`
	PWBs          uint64  `json:"pwbs"`
	PFences       uint64  `json:"pfences"`
	PFencesElided uint64  `json:"pfences_elided,omitempty"`
	PWBsPerOp     float64 `json:"pwbs_per_op"`
	PFencesPerOp  float64 `json:"pfences_per_op"`
	OpsPerBatch   float64 `json:"ops_per_batch"`

	// Server-side op service-time quantiles from the STATS v2 metrics
	// block — cumulative over the server's lifetime, zero when the
	// server runs without its metrics core. Service time excludes the
	// shared group-commit fence (visible separately as ServerCommitP99),
	// so these sit far below the client round-trip quantiles: the gap is
	// queueing plus the fence.
	ServerP50       time.Duration `json:"server_p50_ns,omitempty"`
	ServerP95       time.Duration `json:"server_p95_ns,omitempty"`
	ServerP99       time.Duration `json:"server_p99_ns,omitempty"`
	ServerOpMax     time.Duration `json:"server_op_max_ns,omitempty"`
	ServerCommitP99 time.Duration `json:"server_commit_p99_ns,omitempty"`
}

// Load bulk-inserts key indices [0, records) through conns pipelined
// connections (the YCSB load phase over the wire).
func Load(dial func() (net.Conn, error), records uint64, conns, depth int) error {
	if conns < 1 {
		conns = 1
	}
	if depth < 1 {
		depth = 1
	}
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			nc, err := dial()
			if err != nil {
				errs[w] = err
				return
			}
			c := New(nc)
			defer c.Close()
			keyBuf := make([]byte, 0, 32)
			req := server.Request{Op: server.OpPut}
			for i := uint64(w); i < records; i += uint64(conns) {
				keyBuf = workload.AppendKey(keyBuf[:0], i)
				req.Key, req.Val = keyBuf, i
				c.Send(&req)
				if c.Pending() >= depth {
					if errs[w] = drain(c); errs[w] != nil {
						return
					}
				}
			}
			errs[w] = drain(c)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// drain flushes and receives every in-flight response.
func drain(c *Conn) error {
	if err := c.Flush(); err != nil {
		return err
	}
	for c.Pending() > 0 {
		if _, err := c.Recv(); err != nil {
			return err
		}
	}
	return nil
}

// frames returns the number of request frames op expands to: RMW is a
// pipelined GET+PUT (the blind-update approximation — a pipelined
// client cannot fold the read into the write without stalling), Scan a
// burst of ScanLen GETs.
func frames(op workload.Op) int {
	switch op.Kind {
	case workload.ReadModifyWrite:
		return 2
	case workload.Scan:
		return op.ScanLen
	default:
		return 1
	}
}

// sendOp pipelines op's frames through send, reusing keyBuf.
func sendOp(send func(*server.Request), op workload.Op, keyBuf *[]byte, limit *atomic.Uint64) {
	var req server.Request
	switch op.Kind {
	case workload.Read:
		*keyBuf = workload.AppendKey((*keyBuf)[:0], op.Key)
		req = server.Request{Op: server.OpGet, Key: *keyBuf}
		send(&req)
	case workload.Update, workload.Insert:
		*keyBuf = workload.AppendKey((*keyBuf)[:0], op.Key)
		req = server.Request{Op: server.OpPut, Key: *keyBuf, Val: op.Key}
		send(&req)
	case workload.ReadModifyWrite:
		*keyBuf = workload.AppendKey((*keyBuf)[:0], op.Key)
		req = server.Request{Op: server.OpGet, Key: *keyBuf}
		send(&req)
		req = server.Request{Op: server.OpPut, Key: *keyBuf, Val: op.Key + 1}
		send(&req)
	case workload.Scan:
		n := limit.Load()
		for j := uint64(0); j < uint64(op.ScanLen); j++ {
			*keyBuf = workload.AppendKey((*keyBuf)[:0], (op.Key+j)%n)
			req = server.Request{Op: server.OpGet, Key: *keyBuf}
			send(&req)
		}
	}
}

// opcodeAt returns the request opcode of frame i of an operation of the
// given kind (the open-loop receiver's decode key).
func opcodeAt(kind workload.OpKind, i int) byte {
	switch kind {
	case workload.Update, workload.Insert:
		return server.OpPut
	case workload.ReadModifyWrite:
		if i == 1 {
			return server.OpPut
		}
		return server.OpGet
	default:
		return server.OpGet
	}
}

// Run drives the spec against the server behind dial and aggregates
// client-side latency with server-side instruction deltas.
func Run(dial func() (net.Conn, error), sp Spec) (Result, error) {
	mix, err := workload.MixByName(sp.Mix)
	if err != nil {
		return Result{}, err
	}
	if sp.Records == 0 {
		return Result{}, fmt.Errorf("client: spec needs Records > 0")
	}
	if sp.Conns < 1 {
		sp.Conns = 1
	}
	if sp.Depth < 1 {
		sp.Depth = 1
	}
	if sp.Dist == "" {
		sp.Dist = workload.DistUniform
	}

	var limit atomic.Uint64
	limit.Store(sp.Records)
	gens := make([]*workload.Generator, sp.Conns)
	for w := range gens {
		g, err := workload.NewGenerator(mix, sp.Dist, sp.ZipfS, sp.Records, &limit, sp.ScanMax, 0, sp.Seed+int64(w)*7919)
		if err != nil {
			return Result{}, err
		}
		gens[w] = g
	}

	statsNC, err := dial()
	if err != nil {
		return Result{}, err
	}
	statsConn := New(statsNC)
	defer statsConn.Close()
	before, err := statsConn.Stats()
	if err != nil {
		return Result{}, err
	}

	// All workers record into one shared lock-free histogram so the
	// progress monitor (and nothing else) can read mid-run without
	// synchronizing with the hot path.
	shared := metrics.NewHist()
	counts := make([]workerCounts, sp.Conns)
	errs := make([]error, sp.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(sp.Duration)

	monDone := make(chan struct{})
	var monWG sync.WaitGroup
	if sp.Progress != nil {
		every := sp.ProgressEvery
		if every <= 0 {
			every = time.Second
		}
		monWG.Add(1)
		go func() {
			defer monWG.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			var prev metrics.HistSnapshot
			prevT := start
			for {
				select {
				case <-monDone:
					return
				case <-tick.C:
				}
				var cur metrics.HistSnapshot
				shared.Read(&cur)
				now := time.Now()
				interval := cur
				interval.Sub(&prev)
				p := Progress{
					Elapsed: now.Sub(start),
					Ops:     cur.Count,
					P50:     time.Duration(interval.Quantile(0.50)),
					P99:     time.Duration(interval.Quantile(0.99)),
				}
				if dt := now.Sub(prevT).Seconds(); dt > 0 {
					p.OpsPerSec = float64(interval.Count) / dt
				}
				sp.Progress(p)
				prev, prevT = cur, now
			}
		}()
	}

	for w := 0; w < sp.Conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			nc, err := dial()
			if err != nil {
				errs[w] = err
				return
			}
			c := New(nc)
			defer c.Close()
			if sp.Rate > 0 {
				errs[w] = runOpen(c, gens[w], &limit, shared, &counts[w], deadline, sp.Rate, sp.MaxInflight, w, sp.Conns)
			} else {
				errs[w] = runClosed(c, gens[w], &limit, shared, &counts[w], deadline, sp.Depth)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(monDone)
	monWG.Wait()
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	after, err := statsConn.Stats()
	if err != nil {
		return Result{}, err
	}

	var all metrics.HistSnapshot
	shared.Read(&all)
	var sum workerCounts
	for w := range counts {
		for k, n := range counts[w].kinds {
			sum.kinds[k] += n
		}
		sum.shed += counts[w].shed
		sum.dropped += counts[w].dropped
	}
	res := Result{
		Mix: sp.Mix, Dist: sp.Dist, Conns: sp.Conns, Depth: sp.Depth, Rate: sp.Rate,
		Elapsed: elapsed, Ops: all.Count,
		P50: time.Duration(all.Quantile(0.50)), P95: time.Duration(all.Quantile(0.95)),
		P99: time.Duration(all.Quantile(0.99)), Max: time.Duration(all.MaxNs),
		Reads:   sum.kinds[workload.Read],
		Updates: sum.kinds[workload.Update],
		Inserts: sum.kinds[workload.Insert],
		RMWs:    sum.kinds[workload.ReadModifyWrite],
		Scans:   sum.kinds[workload.Scan],

		Shed:    sum.shed,
		Dropped: sum.dropped,

		ServerOps:     after.OpsServed - before.OpsServed,
		ServerBatches: after.Batches - before.Batches,
		PWBs:          after.PWBs - before.PWBs,
		PFences:       after.PFences - before.PFences,
		PFencesElided: after.PFencesElided - before.PFencesElided,
		ServerShed:    (after.ShedBusy + after.ShedDraining) - (before.ShedBusy + before.ShedDraining),
	}
	if total := res.Ops + res.Shed; total > 0 {
		res.ShedRate = float64(res.Shed) / float64(total)
	}
	if elapsed > 0 {
		res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	}
	if res.ServerOps > 0 {
		res.PWBsPerOp = float64(res.PWBs) / float64(res.ServerOps)
		res.PFencesPerOp = float64(res.PFences) / float64(res.ServerOps)
	}
	if res.ServerBatches > 0 {
		res.OpsPerBatch = float64(res.ServerOps) / float64(res.ServerBatches)
	}
	if m := after.Metrics; m != nil {
		res.ServerP50 = time.Duration(m.OpP50Ns)
		res.ServerP95 = time.Duration(m.OpP95Ns)
		res.ServerP99 = time.Duration(m.OpP99Ns)
		res.ServerOpMax = time.Duration(m.OpMaxNs)
		res.ServerCommitP99 = time.Duration(m.CommitP99Ns)
	}
	return res, nil
}

// workerCounts is one worker's non-latency tallies: completed ops by
// kind, ops the server shed (BUSY/DRAINING), and open-loop arrivals
// dropped at the inflight cap.
type workerCounts struct {
	kinds   [5]uint64
	shed    uint64
	dropped uint64
}

// runClosed is the closed-loop worker: fill a Depth-frame window, flush
// once, read it back, recording one latency per logical operation. An
// operation with any frame answered BUSY counts as shed, not completed;
// a DRAINING answer ends the worker (the server is going away).
func runClosed(c *Conn, g *workload.Generator, limit *atomic.Uint64,
	h *metrics.Hist, wc *workerCounts, deadline time.Time, depth int) error {
	keyBuf := make([]byte, 0, 32)
	winOps := make([]workload.Op, 0, depth)
	for time.Now().Before(deadline) {
		winOps = winOps[:0]
		framesSent := 0
		for framesSent < depth {
			op := g.Next()
			winOps = append(winOps, op)
			sendOp(c.Send, op, &keyBuf, limit)
			framesSent += frames(op)
		}
		t0 := time.Now()
		if err := c.Flush(); err != nil {
			return err
		}
		draining := false
		for _, op := range winOps {
			shed := false
			for f := frames(op); f > 0; f-- {
				resp, err := c.Recv()
				if err != nil {
					return err
				}
				switch resp.Status {
				case server.StatusBusy:
					shed = true
				case server.StatusDraining:
					shed, draining = true, true
				}
			}
			if shed {
				wc.shed++
				continue
			}
			h.Record(time.Since(t0))
			wc.kinds[op.Kind]++
		}
		if draining {
			return nil
		}
	}
	return nil
}

// openMeta carries one scheduled operation from the open-loop sender to
// its receiver.
type openMeta struct {
	sched  time.Time
	frames int
	kind   workload.OpKind
}

// runOpen is the open-loop worker pair: the sender fires operations at
// their scheduled arrival times; the receiver records latency from the
// schedule, not from the send — queueing is part of the measurement.
// The sender honors backpressure: when maxInflight frames are already
// outstanding, the scheduled arrival is dropped and counted instead of
// queueing without bound. Ops the server sheds with BUSY/DRAINING count
// as shed, not completed.
func runOpen(c *Conn, g *workload.Generator, limit *atomic.Uint64,
	h *metrics.Hist, wc *workerCounts, deadline time.Time, rate float64, maxInflight, w, conns int) error {
	if rate <= 0 {
		return fmt.Errorf("client: open loop needs a positive rate")
	}
	if maxInflight <= 0 {
		maxInflight = 1024
	}
	step, offset := workload.OpenLoopSchedule(rate, w, conns)
	ch := make(chan openMeta, 1<<14)
	var inflight atomic.Int64 // outstanding frames, sender adds / receiver subtracts
	var sendErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(ch)
		keyBuf := make([]byte, 0, 32)
		next := time.Now().Add(offset)
		for next.Before(deadline) {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			op := g.Next()
			nf := frames(op)
			if inflight.Load()+int64(nf) > int64(maxInflight) {
				wc.dropped++ // sender-owned field; the receiver never touches it
				next = next.Add(step)
				continue
			}
			inflight.Add(int64(nf))
			sendOp(c.SendUntracked, op, &keyBuf, limit)
			if sendErr = c.Flush(); sendErr != nil {
				return
			}
			ch <- openMeta{sched: next, frames: nf, kind: op.Kind}
			next = next.Add(step)
		}
	}()
	var recvErr error
	for m := range ch {
		if recvErr != nil {
			continue // drain the channel so the sender never blocks
		}
		shed := false
		for f := 0; f < m.frames; f++ {
			resp, err := c.RecvFor(opcodeAt(m.kind, f))
			if err != nil {
				recvErr = err
				break
			}
			if resp.Status == server.StatusBusy || resp.Status == server.StatusDraining {
				shed = true
			}
		}
		inflight.Add(-int64(m.frames))
		if recvErr == nil {
			if shed {
				wc.shed++
			} else {
				h.Record(time.Since(m.sched))
				wc.kinds[m.kind]++
			}
		}
	}
	wg.Wait()
	if sendErr != nil {
		return sendErr
	}
	return recvErr
}
