package client

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"flit/internal/server"
	"flit/internal/store"
	"flit/internal/workload"
)

// Spec describes one timed load-generation run against a flitstored
// server: a YCSB mix over pipelined connections, one per worker. With
// Rate == 0 it runs the shared closed loop (workload.Drive): each
// connection sends a window of Depth request frames, flushes once (so the
// server group-commits the whole window) and reads it back. With Rate > 0
// operations arrive on a fixed schedule at Rate ops/s total, split evenly
// across connections, however fast responses return; latency is measured
// from the scheduled arrival, so queueing delay under overload is charged
// to the server (the coordinated-omission-free spelling).
type Spec struct {
	workload.Spec
	Rate float64 // open-loop total ops/s; 0 selects closed loop

	// MaxInflight caps outstanding request frames per open-loop
	// connection (default 1024). Arrivals over the cap are DROPPED and
	// counted (Result.Dropped) instead of queueing unboundedly, as a real
	// ingress would. The closed loop is bounded by Depth and ignores it.
	MaxInflight int
}

// Result aggregates one run: client-observed throughput and latency,
// plus the server-side instruction deltas (via STATS) that make the
// group-commit amortization visible — PWBs and fences per acknowledged
// operation.
type Result struct {
	Mix   string  `json:"mix"`
	Dist  string  `json:"dist"`
	Conns int     `json:"conns"`
	Depth int     `json:"depth"`
	Rate  float64 `json:"rate,omitempty"`

	// Ops count only completed operations, so OpsPerSec is the goodput.
	workload.Measured

	// Dropped counts open-loop arrivals the client never sent because
	// the inflight cap was hit, and ShedRate is Shed/(Ops+Shed).
	// ServerShed is the server's own shed counter delta over the window
	// — the two sides must agree within the final pipeline round.
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
	// block — cumulative since the server started, not over this run's
	// window like the fields above; zero when the server runs without its
	// metrics core. Service time excludes the shared group-commit fence
	// (visible separately as ServerCommitP99), so these sit far below the
	// client round-trip quantiles: the gap is queueing plus the fence.
	ServerP50       time.Duration `json:"server_p50_ns,omitempty"`
	ServerP95       time.Duration `json:"server_p95_ns,omitempty"`
	ServerP99       time.Duration `json:"server_p99_ns,omitempty"`
	ServerOpMax     time.Duration `json:"server_op_max_ns,omitempty"`
	ServerCommitP99 time.Duration `json:"server_commit_p99_ns,omitempty"`
}

// Load bulk-inserts key indices [0, records) through conns pipelined
// connections (the YCSB load phase over the wire), in windows of depth
// Puts.
func Load(dial func() (net.Conn, error), records uint64, conns, depth int) error {
	conns, depth = max(conns, 1), max(depth, 1)
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
			ex := ConnExec{New(nc)}
			defer ex.C.Close()
			keys := make([][]byte, depth)
			ops := make([]store.Op[[]byte], 0, depth)
			res, shed := make([]store.Result, depth), make([]bool, depth)
			for i := uint64(w); i < records && errs[w] == nil; i += uint64(conns) {
				ops = append(ops, store.Op[[]byte]{Kind: store.OpPut, Key: workload.AppendKey(keys[len(ops)][:0], i), Val: i})
				if len(ops) == depth || i+uint64(conns) >= records {
					_, errs[w] = ex.ExecBatch(ops, res[:len(ops)], shed[:len(ops)])
					ops = ops[:0]
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Run drives the spec against the server behind dial and aggregates
// client-side latency with server-side instruction deltas. A mix with
// Add ops is rejected before anything is dialed: the wire has no ADD.
func Run(dial func() (net.Conn, error), sp Spec) (Result, error) {
	spec, mix, err := sp.Spec.Normalized()
	if err != nil {
		return Result{}, err
	}
	if mix.Add > 0 {
		return Result{}, fmt.Errorf("client: mix %q issues Add operations, which the wire protocol cannot carry", sp.Mix)
	}
	sp.Spec = spec

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

	var dropped atomic.Uint64
	m, err := workload.Drive(sp.Spec, func(w *workload.Worker) error {
		nc, err := dial()
		if err != nil {
			return err
		}
		c := New(nc)
		defer c.Close()
		if sp.Rate > 0 {
			return runOpen(c, w, sp.Rate, sp.MaxInflight, sp.Workers, &dropped)
		}
		return w.Closed(ConnExec{c})
	})
	if err != nil {
		return Result{}, err
	}
	after, err := statsConn.Stats()
	if err != nil {
		return Result{}, err
	}

	iv := after.Since(before)
	res := Result{
		Mix: sp.Mix, Dist: sp.Dist, Conns: sp.Workers, Depth: sp.Depth, Rate: sp.Rate,
		Measured: m, Dropped: dropped.Load(), ServerShed: iv.Shed,

		ServerOps: iv.Ops, ServerBatches: iv.Batches,
		PWBs: iv.PWBs, PFences: iv.PFences, PFencesElided: iv.PFencesElided,
		PWBsPerOp: iv.PWBsPerOp, PFencesPerOp: iv.PFencesPerOp, OpsPerBatch: iv.OpsPerBatch,
	}
	if total := res.Ops + res.Shed; total > 0 {
		res.ShedRate = float64(res.Shed) / float64(total)
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

// ConnExec executes windows over one pipelined connection: every
// request of the window is sent, then flushed once, then every response
// read back. BUSY and DRAINING answers mark their op shed; DRAINING also
// returns workload.ErrDraining once the window is read (the server is
// going away). A transport failure returns how many responses arrived
// before it: the rest of the window may or may not have executed.
type ConnExec struct{ C *Conn }

func (e ConnExec) ExecBatch(ops []store.Op[[]byte], res []store.Result, shed []bool) (int, error) {
	for i := range ops {
		req, err := server.WireRequest(ops[i])
		if err != nil {
			return 0, err
		}
		e.C.Send(&req)
	}
	if err := e.C.Flush(); err != nil {
		return 0, err
	}
	var stop error
	for i := range ops {
		resp, err := e.C.Recv()
		if err != nil {
			return i, err
		}
		if resp.Status == server.StatusDraining {
			stop = workload.ErrDraining
		}
		shed[i] = resp.Status == server.StatusBusy || resp.Status == server.StatusDraining
		res[i] = server.WireResult(ops[i].Kind, resp)
	}
	return len(ops), stop
}

// openFrame carries one sent request frame from the open-loop sender to
// its receiver; an op's last frame completes it.
type openFrame struct {
	sched time.Time
	op    byte
	kind  workload.OpKind
	last  bool
}

// runOpen is the open-loop worker pair: the sender fires operations at
// their scheduled arrival times, or drops and counts an arrival when
// maxInflight frames are already outstanding; the receiver records
// latency from the schedule, not from the send — queueing is part of the
// measurement.
func runOpen(c *Conn, w *workload.Worker, rate float64, maxInflight, workers int, dropped *atomic.Uint64) error {
	maxInflight = cmp.Or(max(maxInflight, 0), 1024)
	// Worker w owns every workers-th slot of one global schedule evenly
	// spaced at rate ops/s (not workers-sized lockstep bursts); the step
	// is clamped to 1ns so an absurd rate still reaches the deadline.
	step := max(time.Duration(float64(time.Second)*float64(workers)/rate), 1)
	next := time.Now().Add(time.Duration(w.ID) * step / time.Duration(workers))
	// One slot per frame the inflight cap admits (up to 1<<14), so the
	// sender does not wait on the receiver below the cap.
	ch := make(chan openFrame, min(maxInflight, 1<<14))
	var inflight atomic.Int64 // outstanding frames, sender adds / receiver subtracts
	var sendErr error         // the sender's; read once it has closed ch
	go func() {
		defer close(ch)
		var ops []store.Op[[]byte]
		var kind workload.OpKind
		for ; next.Before(w.Deadline); next = next.Add(step) {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			ops, kind = w.Next(ops[:0])
			if inflight.Load()+int64(len(ops)) > int64(maxInflight) {
				dropped.Add(1)
				continue
			}
			inflight.Add(int64(len(ops)))
			for i := range ops {
				var req server.Request
				if req, sendErr = server.WireRequest(ops[i]); sendErr != nil {
					break
				}
				c.SendUntracked(&req)
				ch <- openFrame{sched: next, op: req.Op, kind: kind, last: i == len(ops)-1}
			}
			if sendErr = cmp.Or(sendErr, c.Flush()); sendErr != nil {
				c.Close() // fails the receiver's wait for a frame never sent
				return
			}
		}
	}()
	var recvErr error
	shed := false
	for f := range ch {
		if recvErr != nil {
			continue // drain the channel so the sender never blocks
		}
		resp, err := c.RecvFor(f.op)
		if err != nil {
			recvErr = err
			continue
		}
		inflight.Add(-1)
		shed = shed || resp.Status == server.StatusBusy || resp.Status == server.StatusDraining
		if f.last {
			w.Finish(f.kind, shed, time.Since(f.sched))
			shed = false
		}
	}
	return cmp.Or(sendErr, recvErr)
}
