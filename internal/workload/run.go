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

// Spec describes one timed closed-loop run (Drive): the fields the
// network load generator (client.Run) and the in-process drivers share.
type Spec struct {
	Mix   string  // workload letter a–g
	Dist  string  // uniform (default) | zipfian | latest
	ZipfS float64 // zipfian skew; ≤1 selects DefaultZipfS
	// Records is the keyspace size at run start (the loaded record
	// count); D/E inserts grow it.
	Records uint64
	// Workers is the number of closed-loop workers (default 1): store
	// sessions in-process, connections over the wire.
	Workers int
	// Depth is the store ops per window (default 1): a worker generates
	// ops until their expansion fills Depth slots, then executes the
	// window as one vector.
	Depth    int
	Duration time.Duration
	Seed     int64

	// Progress, when set, is called about once a second from Drive's own
	// goroutine with a live snapshot of the run, read from the workers'
	// lock-free histograms without stopping them.
	Progress func(Progress)
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
	sp.Dist = cmp.Or(sp.Dist, DistUniform)
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
// result the load generator (client.Result) reports.
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

// Executor runs one worker's windows of store ops — the one interface
// for it: a store session (SessExec) or a pipelined connection
// (client.ConnExec).
type Executor interface {
	// ExecBatch executes ops in order, filling res[i] with ops[i]'s
	// outcome and setting shed[i] (false on entry) when ops[i] was
	// refused unexecuted. The first answered ops got an answer (result
	// or shed); the rest, past a transport that died mid-window, may or
	// may not have executed. A non-nil error ends the worker: ErrDraining
	// after this window is counted, any other error fails the run.
	ExecBatch(ops []store.Op[[]byte], res []store.Result, shed []bool) (answered int, err error)
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
		g, err := NewGenerator(mix, sp.Dist, sp.ZipfS, sp.Records, &limit, defaultScanMax, 0, sp.Seed+int64(i)*7919)
		if err != nil {
			return Measured{}, err
		}
		// A window closes at Depth slots, so it holds at most Depth-1
		// slots plus one op's expansion: a scan burst or an RMW pair.
		w := &Worker{ID: i, gen: g, depth: sp.Depth, hist: metrics.NewHist(),
			bufs: make([][]byte, sp.Depth+defaultScanMax)}
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
		t := time.NewTicker(time.Second)
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
		_, err := ex.ExecBatch(ops, res[:len(ops)], shed[:len(ops)])
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

// SessExec executes windows through one store session: a vector Apply,
// then the group commit (a no-op outside Batched mode), so every result
// is durable when it returns. A session answers every op and never sheds.
type SessExec struct{ S *store.Sess[[]byte] }

func (e SessExec) ExecBatch(ops []store.Op[[]byte], res []store.Result, _ []bool) (int, error) {
	e.S.Apply(ops, res)
	e.S.Commit()
	return len(ops), nil
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
			defer sess.Close()
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
