package workload

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flit/internal/metrics"
	"flit/internal/store"
)

// Spec describes one timed closed-loop run: the fields the in-process
// runner (Run) and the network load generator (client.Run) share.
type Spec struct {
	Mix   string  // workload letter a–g
	Dist  string  // uniform (default) | zipfian | latest
	ZipfS float64 // zipfian skew; ≤1 selects DefaultZipfS
	// Records is the keyspace size at run start (the loaded record
	// count); D/E inserts grow it.
	Records uint64
	// ScanMax bounds workload E's point-read bursts (default 16).
	ScanMax int
	// HotKeys, when non-zero, confines non-insert key draws to the
	// uniform window [0, HotKeys) — mix G's contention knob.
	HotKeys uint64
	// Workers is the number of closed-loop workers (default 1): store
	// sessions in-process, connections over the wire.
	Workers int
	// Depth is the store ops per window (default 1): a worker generates
	// ops until their expansion fills Depth slots, then executes the
	// window as one vector.
	Depth    int
	Duration time.Duration
	Seed     int64

	// Progress, when set, is called about once per ProgressEvery
	// (default 1s) from Drive's own goroutine with a live snapshot of the
	// run, read from the workers' lock-free histograms without stopping
	// them.
	Progress      func(Progress)
	ProgressEvery time.Duration
}

// Normalized returns sp with its defaults filled and its mix resolved, or
// the reason no run can start from it.
func (sp Spec) Normalized() (Spec, Mix, error) {
	mix, err := MixByName(sp.Mix)
	if err != nil {
		return sp, mix, err
	}
	if sp.Records == 0 {
		return sp, mix, fmt.Errorf("workload: spec needs Records > 0")
	}
	sp.Dist, sp.ScanMax = cmp.Or(sp.Dist, DistUniform), cmp.Or(max(sp.ScanMax, 0), 16)
	sp.Workers, sp.Depth = max(sp.Workers, 1), max(sp.Depth, 1)
	return sp, mix, nil
}

// Progress is one live snapshot of a running load, delivered to
// Spec.Progress. Ops is cumulative; the rate and quantiles cover the
// interval since the previous callback.
type Progress struct {
	Elapsed   time.Duration // since the measured window opened
	Ops       uint64        // operations completed so far
	OpsPerSec float64       // interval throughput
	P50       time.Duration // interval latency
	P99       time.Duration
}

// Measured is what the closed-loop driver measures: the part of a run's
// result both runners report.
type Measured struct {
	Elapsed time.Duration `json:"elapsed_ns"`
	// Ops counts completed generated operations (a scan burst is one op);
	// each one added exactly one latency sample.
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
	Adds    uint64 `json:"-"` // no wire opcode: flitload's JSON has no key
	// Shed counts ops the executor refused unexecuted (the server's
	// BUSY/DRAINING); they are in neither Ops nor the histogram.
	Shed uint64 `json:"shed,omitempty"`
}

// Result aggregates one in-process run: the driver's measurements plus
// the run's flush counts.
type Result struct {
	Measured

	PWBs      uint64  `json:"pwbs"`
	PFences   uint64  `json:"pfences"`
	PWBsPerOp float64 `json:"pwbs_per_op"`

	// PFencesElided counts dependency fences found empty and not issued.
	PFencesElided uint64 `json:"pfences_elided,omitempty"`
}

// Executor runs one worker's windows of store ops.
type Executor interface {
	// ExecBatch executes ops in order, filling res[i] with ops[i]'s
	// outcome and setting shed[i] (false on entry) when ops[i] was
	// refused unexecuted. A non-nil error ends the worker: ErrDraining
	// after this window is counted, any other error fails the run.
	ExecBatch(ops []store.Op[[]byte], res []store.Result, shed []bool) error
}

// ErrDraining is an executor's report that it takes no more windows
// (the server is shutting down).
var ErrDraining = errors.New("workload: executor draining")

// Worker is one driver worker: its generator, its key buffers and the
// tallies the driver merges. Its methods run on the worker's goroutine,
// except Finish, which one other goroutine may own instead.
type Worker struct {
	ID       int
	Deadline time.Time

	gen   *Generator
	depth int
	bufs  [][]byte // one key buffer per window slot

	hist  *metrics.Hist
	kinds [numKinds]uint64
	shed  uint64
}

// Drive runs sp: it fills the spec's defaults, builds each worker's
// generator (seed + w·7919, one keyspace limit shared by all), runs body
// once per worker on its own goroutine until the deadline, feeds the
// Progress monitor, and merges the workers' histograms and tallies.
// A body usually opens an executor and returns w.Closed on it.
func Drive(sp Spec, body func(w *Worker) error) (Measured, error) {
	sp, mix, err := sp.Normalized()
	if err != nil {
		return Measured{}, err
	}
	var limit atomic.Uint64
	limit.Store(sp.Records)
	ws := make([]*Worker, sp.Workers)
	hists := make([]*metrics.Hist, sp.Workers)
	for i := range ws {
		g, err := NewGenerator(mix, sp.Dist, sp.ZipfS, sp.Records, &limit, sp.ScanMax, sp.HotKeys, sp.Seed+int64(i)*7919)
		if err != nil {
			return Measured{}, err
		}
		// A window closes at Depth slots, so it holds at most Depth-1
		// slots plus one op's expansion: a ScanMax burst or an RMW pair.
		w := &Worker{ID: i, gen: g, depth: sp.Depth, hist: metrics.NewHist(),
			bufs: make([][]byte, sp.Depth+sp.ScanMax)}
		for j := range w.bufs {
			w.bufs[j] = make([]byte, 0, len(KeyPrefix)+keyDigits)
		}
		ws[i], hists[i] = w, w.hist
	}

	start := time.Now()
	var elapsed time.Duration
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		// Workers watch the deadline themselves, from the clock reading
		// they already take for latency — no stop flag, no sleeping
		// coordinator whose wake-up lags when the workers saturate every P.
		w.Deadline = start.Add(sp.Duration)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = body(w)
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		elapsed = time.Since(start)
		close(done)
	}()
	// Meanwhile this goroutine is the Progress monitor, if there is one.
	var tick <-chan time.Time
	if sp.Progress != nil {
		t := time.NewTicker(cmp.Or(max(sp.ProgressEvery, 0), time.Second))
		defer t.Stop()
		tick = t.C
	}
	var prev metrics.HistSnapshot
	for prevT, running := start, true; running; {
		select {
		case <-done:
			running = false
		case <-tick:
			cur, now := mergeLatency(hists), time.Now()
			interval := cur
			interval.Sub(&prev)
			sp.Progress(Progress{
				Elapsed: now.Sub(start), Ops: cur.Count,
				OpsPerSec: float64(interval.Count) / now.Sub(prevT).Seconds(),
				P50:       time.Duration(interval.Quantile(0.50)),
				P99:       time.Duration(interval.Quantile(0.99)),
			})
			prev, prevT = cur, now
		}
	}
	if err := errors.Join(errs...); err != nil {
		return Measured{}, err
	}

	all := mergeLatency(hists)
	q := func(x float64) time.Duration { return time.Duration(all.Quantile(x)) }
	var kinds [numKinds]uint64
	m := Measured{Elapsed: elapsed, Ops: all.Count, P50: q(0.50), P95: q(0.95), P99: q(0.99), Max: time.Duration(all.MaxNs)}
	for _, w := range ws {
		for k, n := range w.kinds {
			kinds[k] += n
		}
		m.Shed += w.shed
	}
	m.Reads, m.Updates, m.Inserts = kinds[Read], kinds[Update], kinds[Insert]
	m.RMWs, m.Scans, m.Adds = kinds[ReadModifyWrite], kinds[Scan], kinds[Add]
	if elapsed > 0 {
		m.OpsPerSec = float64(m.Ops) / elapsed.Seconds()
	}
	return m, nil
}

// mergeLatency folds the workers' private histograms (one each, so the
// op loop records without sharing a cache line) into the run's latency
// distribution.
func mergeLatency(hists []*metrics.Hist) metrics.HistSnapshot {
	var all, one metrics.HistSnapshot
	for _, h := range hists {
		h.Read(&one)
		all.Merge(&one)
	}
	return all
}

// Next generates the worker's next op and appends its store ops to ops —
// the one rule turning a generated op into store ops. RMW is a Get slot
// and a blind Put slot (a vector cannot thread one op's read into its
// write); a Scan is a burst of ScanLen point Gets. Each slot's key renders
// into that slot's own buffer, so the keys stay valid until the next
// window.
func (w *Worker) Next(ops []store.Op[[]byte]) ([]store.Op[[]byte], OpKind) {
	op := w.gen.Next()
	switch op.Kind {
	case Read:
		ops = w.slot(ops, store.OpGet, op.Key, 0)
	case Update:
		ops = w.slot(ops, store.OpPut, op.Key, op.Key^uint64(w.ID))
	case Insert:
		ops = w.slot(ops, store.OpPut, op.Key, op.Key)
	case ReadModifyWrite:
		ops = w.slot(ops, store.OpGet, op.Key, 0)
		ops = w.slot(ops, store.OpPut, op.Key, op.Key+1)
	case Scan:
		n := w.gen.limit.Load()
		for j := uint64(0); j < uint64(op.ScanLen); j++ {
			ops = w.slot(ops, store.OpGet, (op.Key+j)%n, 0)
		}
	case Add:
		ops = w.slot(ops, store.OpAdd, op.Key, op.Delta)
	}
	return ops, op.Kind
}

// slot appends one store op on key index key to ops. The key renders into
// the slot's own buffer, sized for every key below 10^16.
func (w *Worker) slot(ops []store.Op[[]byte], kind store.OpKind, key, val uint64) []store.Op[[]byte] {
	return append(ops, store.Op[[]byte]{Kind: kind, Key: AppendKey(w.bufs[len(ops)][:0], key), Val: val})
}

// Finish records one op of the given kind: refused unexecuted if shed,
// else completed after lat.
func (w *Worker) Finish(kind OpKind, shed bool, lat time.Duration) {
	if shed {
		w.shed++
		return
	}
	w.hist.Record(lat)
	w.kinds[kind]++
}

// Closed is the closed loop: generate a window of Depth slots, execute
// it, and charge the window's latency — one clock reading per window,
// the gap since the previous one — to each of its completed ops, until
// the deadline. An op with any slot shed counts as refused instead.
func (w *Worker) Closed(ex Executor) error {
	var kinds []OpKind
	var ends []int // one past each op's last slot
	ops := make([]store.Op[[]byte], 0, len(w.bufs))
	res := make([]store.Result, len(w.bufs))
	shed := make([]bool, len(w.bufs))
	for prev := time.Now(); !prev.After(w.Deadline); {
		ops, kinds, ends = ops[:0], kinds[:0], ends[:0]
		for len(ops) < w.depth {
			var kind OpKind
			ops, kind = w.Next(ops)
			kinds, ends = append(kinds, kind), append(ends, len(ops))
		}
		clear(shed[:len(ops)])
		err := ex.ExecBatch(ops, res[:len(ops)], shed[:len(ops)])
		if err != nil && !errors.Is(err, ErrDraining) {
			return err
		}
		now := time.Now()
		lat, from := now.Sub(prev), 0
		for i, kind := range kinds {
			w.Finish(kind, slices.Contains(shed[from:ends[i]], true), lat)
			from = ends[i]
		}
		prev = now
		if err != nil {
			return nil
		}
	}
	return nil
}

// sessExec executes windows through one store session: a vector Apply,
// then the group commit (a no-op outside Batched mode). A session never
// sheds.
type sessExec struct{ s *store.Sess[[]byte] }

func (e sessExec) ExecBatch(ops []store.Op[[]byte], res []store.Result, _ []bool) error {
	e.s.Apply(ops, res)
	e.s.Commit()
	return nil
}

// Load bulk-inserts key indices [0, records) through threads parallel
// sessions (the YCSB load phase) and returns its wall time and
// throughput. Unlike the set cells' prefill (internal/bench), latency
// modeling stays on: loading a durable store pays its flushes, and the report says so.
func Load(st *store.Store, records uint64, threads int) (time.Duration, float64) {
	threads = max(threads, 1)
	start := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			sess := store.Open[[]byte](st, store.Direct)
			keyBuf := make([]byte, 0, len(KeyPrefix)+20)
			for i := uint64(t); i < records; i += uint64(threads) {
				keyBuf = AppendKey(keyBuf[:0], i)
				sess.Put(keyBuf, i)
			}
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return elapsed, float64(records) / elapsed.Seconds()
}

// Run drives st with sp's mix through sp.Workers sessions of the given
// mode for sp.Duration and returns throughput, latency percentiles and
// flush counts. Memory statistics are reset at the start of the run, so
// the flush counts are the run's alone.
func Run(st *store.Store, mode store.SessionMode, sp Spec) (Result, error) {
	st.Mem().ResetStats()
	m, err := Drive(sp, func(w *Worker) error {
		sess := store.Open[[]byte](st, mode)
		defer sess.Close()
		return w.Closed(sessExec{sess})
	})
	if err != nil {
		return Result{}, err
	}
	stats := st.Mem().TotalStats()
	res := Result{Measured: m, PWBs: stats.PWBs, PFences: stats.PFences, PFencesElided: stats.ElidedFences}
	if m.Ops > 0 {
		res.PWBsPerOp = float64(res.PWBs) / float64(m.Ops)
	}
	return res, nil
}
