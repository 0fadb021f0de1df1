package workload

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flit/internal/metrics"
	"flit/internal/store"
)

// Spec describes one timed run against a store.
type Spec struct {
	Mix      string  // workload letter a–f
	Dist     string  // uniform | zipfian | latest
	ZipfS    float64 // zipfian skew; ≤1 selects DefaultZipfS
	Threads  int
	Duration time.Duration
	// Records is the keyspace size at run start (the loaded record
	// count); D/E inserts grow it.
	Records uint64
	// ScanMax bounds workload E's point-read bursts (default 16).
	ScanMax int
	// Rate switches the runner to open-loop arrivals: operations are
	// fired on a fixed schedule at Rate ops/s total (split evenly across
	// threads) instead of back-to-back, and latency is measured from the
	// scheduled arrival — queueing delay under overload is charged to
	// the store, the coordinated-omission-free spelling. Zero keeps the
	// closed loop. Incompatible with Depth > 1.
	Rate float64
	Seed int64

	// Mode selects the session mode each worker runs under (zero value:
	// store.Direct). Batched workers commit once per window; Combined
	// workers announce each window to the per-shard flat combiners.
	Mode store.SessionMode
	// Depth is the operations per window (default 1): workers collect
	// Depth generated ops and execute them as one vector Apply. With
	// Depth > 1 the latency histogram records one sample per window —
	// window completion latency — and RMW decomposes into a Get and a
	// Put slot (a vector window cannot thread one op's read into its
	// write).
	Depth int
	// HotKeys, when non-zero, confines non-insert key draws to the
	// uniform window [0, HotKeys) — mix G's contention knob.
	HotKeys uint64
}

// Result aggregates one run: throughput, tail latency, flush behaviour.
type Result struct {
	Mix       string        `json:"mix"`
	Dist      string        `json:"dist"`
	Threads   int           `json:"threads"`
	Elapsed   time.Duration `json:"elapsed_ns"`
	Ops       uint64        `json:"ops"`
	OpsPerSec float64       `json:"ops_per_sec"`

	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
	Max time.Duration `json:"max_ns"`

	// Rate echoes the open-loop arrival rate (0: closed loop).
	Rate float64 `json:"rate,omitempty"`

	Reads   uint64 `json:"reads"`
	Updates uint64 `json:"updates"`
	Inserts uint64 `json:"inserts"`
	RMWs    uint64 `json:"rmws"`
	Scans   uint64 `json:"scans"`
	Adds    uint64 `json:"adds,omitempty"`

	PWBs      uint64  `json:"pwbs"`
	PFences   uint64  `json:"pfences"`
	PWBsPerOp float64 `json:"pwbs_per_op"`

	// PFencesElided counts dependency fences found empty and not issued.
	PFencesElided uint64 `json:"pfences_elided,omitempty"`
}

// OpenLoopSchedule computes one worker's slice of a fixed-rate global
// arrival schedule: the step between the worker's own arrivals and its
// staggered first-arrival offset, such that the union over workers is
// evenly spaced at rate ops/s (not workers-sized lockstep bursts). The
// step is clamped to >= 1ns — an absurd rate would otherwise truncate
// it to zero and the schedule could never reach its deadline. Shared by
// the in-process runner and the network load generator so the two
// open-loop measurements stay comparable.
func OpenLoopSchedule(rate float64, w, workers int) (step, offset time.Duration) {
	step = time.Duration(float64(time.Second) * float64(workers) / rate)
	if step < 1 {
		step = 1
	}
	return step, time.Duration(w) * step / time.Duration(workers)
}

// Load bulk-inserts key indices [0, records) through threads parallel
// sessions (the YCSB load phase) and returns its wall time and
// throughput. Unlike the set cells' prefill (internal/bench), latency
// modeling stays on: loading a durable store pays its flushes, and the report says so.
func Load(st *store.Store, records uint64, threads int) (time.Duration, float64) {
	if threads < 1 {
		threads = 1
	}
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
	ops := float64(records) / elapsed.Seconds()
	return elapsed, ops
}

// Run drives st with the spec's mix and distribution for the configured
// duration and returns throughput, latency percentiles and flush counts.
// Memory statistics are reset at the start of the measured window, so the
// flush counts are the run's alone.
func Run(st *store.Store, sp Spec) (Result, error) {
	mix, err := MixByName(sp.Mix)
	if err != nil {
		return Result{}, err
	}
	if sp.Threads < 1 {
		sp.Threads = 1
	}
	if sp.Records == 0 {
		return Result{}, fmt.Errorf("workload: spec needs Records > 0")
	}
	if sp.Dist == "" {
		sp.Dist = DistUniform
	}
	if sp.Depth < 1 {
		sp.Depth = 1
	}
	if sp.Depth > 1 && sp.Rate > 0 {
		return Result{}, fmt.Errorf("workload: open-loop arrivals (Rate) and windowed execution (Depth > 1) are mutually exclusive")
	}
	if sp.ScanMax < 1 {
		sp.ScanMax = 16
	}

	var limit atomic.Uint64
	limit.Store(sp.Records)
	gens := make([]*Generator, sp.Threads)
	for t := range gens {
		g, err := NewGenerator(mix, sp.Dist, sp.ZipfS, sp.Records, &limit, sp.ScanMax, sp.HotKeys, sp.Seed+int64(t)*7919)
		if err != nil {
			return Result{}, err
		}
		gens[t] = g
	}

	st.Mem().ResetStats()
	var wg sync.WaitGroup
	hists := make([]*metrics.Hist, sp.Threads)
	var kindCounts [numKinds][]uint64
	for k := range kindCounts {
		kindCounts[k] = make([]uint64, sp.Threads)
	}
	start := time.Now()
	// Workers watch the deadline themselves, from the per-op timestamp
	// they already take for the latency histogram — no stop flag, no
	// sleeping coordinator whose timer wake-up lags when the workers
	// saturate every P (see bench.Instance.run).
	deadline := start.Add(sp.Duration)
	for t := 0; t < sp.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			sess := store.Open[[]byte](st, sp.Mode)
			g := gens[t]
			h := metrics.NewHist()
			hists[t] = h
			if sp.Depth > 1 {
				runWindowed(sess, g, sp, h, &limit, kindCounts[:], t, deadline)
				return
			}
			// The op loop is allocation-free: keys render into one reused
			// buffer (AppendKey + the byte-key session API), and latency is
			// taken from one clock reading per op — consecutive timestamps
			// delimit each operation, so an op's recorded latency includes
			// the (tiny) generator step that precedes it rather than paying
			// a second time.Now call to exclude it.
			keyBuf := make([]byte, 0, len(KeyPrefix)+20)
			key := func(i uint64) []byte {
				keyBuf = AppendKey(keyBuf[:0], i)
				return keyBuf
			}
			// Open loop: each worker owns every sp.Threads-th slot of the
			// global arrival schedule; an op whose slot has not arrived
			// yet waits, an op running late starts immediately and its
			// queueing delay lands in the histogram.
			var step time.Duration
			var next time.Time
			open := sp.Rate > 0
			if open {
				var off time.Duration
				step, off = OpenLoopSchedule(sp.Rate, t, sp.Threads)
				next = start.Add(off)
			}
			batched := sp.Mode == store.Batched
			prev := time.Now()
			for {
				if open {
					if !next.Before(deadline) {
						break
					}
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
				} else if prev.After(deadline) {
					break
				}
				op := g.Next()
				switch op.Kind {
				case Read:
					sess.Get(key(op.Key))
				case Update:
					sess.Put(key(op.Key), op.Key^uint64(t))
				case Insert:
					sess.Put(key(op.Key), op.Key)
				case ReadModifyWrite:
					v, _ := sess.Get(key(op.Key))
					sess.Put(key(op.Key), v+1)
				case Scan:
					n := limit.Load()
					for j := uint64(0); j < uint64(op.ScanLen); j++ {
						sess.Get(key((op.Key + j) % n))
					}
				case Add:
					sess.Add(key(op.Key), op.Delta)
				}
				if batched {
					// Depth-1 batched degenerates to a commit per op; the
					// group-commit win needs Depth > 1.
					sess.Commit()
				}
				now := time.Now()
				if open {
					h.Record(now.Sub(next))
					next = next.Add(step)
				} else {
					h.Record(now.Sub(prev))
				}
				prev = now
				kindCounts[op.Kind][t]++
			}
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)

	all := mergeLatency(hists)
	quantile := func(q float64) time.Duration { return time.Duration(all.Quantile(q)) }
	sum := func(xs []uint64) uint64 {
		var s uint64
		for _, x := range xs {
			s += x
		}
		return s
	}
	stats := st.Mem().TotalStats()
	var ops uint64
	for k := range kindCounts {
		ops += sum(kindCounts[k])
	}
	res := Result{
		Mix: sp.Mix, Dist: sp.Dist, Threads: sp.Threads, Rate: sp.Rate,
		// Ops counts generated operations (a scan burst is one op), which
		// equals the histogram count at Depth 1; windowed runs record one
		// latency sample per window, so the histogram undercounts there.
		Elapsed: elapsed, Ops: ops,
		P50: quantile(0.50), P95: quantile(0.95), P99: quantile(0.99), Max: time.Duration(all.MaxNs),
		Reads:   sum(kindCounts[Read]),
		Updates: sum(kindCounts[Update]),
		Inserts: sum(kindCounts[Insert]),
		RMWs:    sum(kindCounts[ReadModifyWrite]),
		Scans:   sum(kindCounts[Scan]),
		Adds:    sum(kindCounts[Add]),
		PWBs:    stats.PWBs,
		PFences: stats.PFences,

		PFencesElided: stats.ElidedFences,
	}
	if elapsed > 0 {
		res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	}
	if res.Ops > 0 {
		res.PWBsPerOp = float64(res.PWBs) / float64(res.Ops)
	}
	return res, nil
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

// runWindowed is the Depth>1 worker loop: collect a window of generated
// ops, execute it as one vector Apply, commit (Batched) and record the
// window's completion latency as one histogram sample. RMW decomposes
// into a Get slot and a Put slot; a Scan expands into its point-read
// burst; both may run a window a few slots past Depth rather than split
// an operation across windows.
func runWindowed(sess *store.Sess[[]byte], g *Generator, sp Spec, h *metrics.Hist, limit *atomic.Uint64, kindCounts [][]uint64, t int, deadline time.Time) {
	maxWin := sp.Depth + sp.ScanMax
	ops := make([]store.Op[[]byte], 0, maxWin)
	res := make([]store.Result, maxWin)
	bufs := make([][]byte, maxWin)
	for i := range bufs {
		bufs[i] = make([]byte, 0, len(KeyPrefix)+20)
	}
	key := func(slot int, i uint64) []byte {
		bufs[slot] = AppendKey(bufs[slot][:0], i)
		return bufs[slot]
	}
	batched := sp.Mode == store.Batched
	prev := time.Now()
	for !prev.After(deadline) {
		ops = ops[:0]
		for len(ops) < sp.Depth {
			op := g.Next()
			switch op.Kind {
			case Read:
				ops = append(ops, store.Op[[]byte]{Kind: store.OpGet, Key: key(len(ops), op.Key)})
			case Update:
				ops = append(ops, store.Op[[]byte]{Kind: store.OpPut, Key: key(len(ops), op.Key), Val: op.Key ^ uint64(t)})
			case Insert:
				ops = append(ops, store.Op[[]byte]{Kind: store.OpPut, Key: key(len(ops), op.Key), Val: op.Key})
			case ReadModifyWrite:
				ops = append(ops, store.Op[[]byte]{Kind: store.OpGet, Key: key(len(ops), op.Key)})
				ops = append(ops, store.Op[[]byte]{Kind: store.OpPut, Key: key(len(ops), op.Key), Val: op.Key + 1})
			case Scan:
				n := limit.Load()
				for j := uint64(0); j < uint64(op.ScanLen); j++ {
					ops = append(ops, store.Op[[]byte]{Kind: store.OpGet, Key: key(len(ops), (op.Key+j)%n)})
				}
			case Add:
				ops = append(ops, store.Op[[]byte]{Kind: store.OpAdd, Key: key(len(ops), op.Key), Val: op.Delta})
			}
			kindCounts[op.Kind][t]++
		}
		sess.Apply(ops, res[:len(ops)])
		if batched {
			sess.Commit()
		}
		now := time.Now()
		h.Record(now.Sub(prev))
		prev = now
	}
}
