package bench

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"flit/internal/bench/stats"
	"flit/internal/client"
	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/server"
	"flit/internal/store"
	"flit/internal/workload"
)

// StoreCell is one point of the service-layer grid: a YCSB mix ×
// distribution × policy against the sharded FliT-Store.
type StoreCell struct {
	Mix     string
	Dist    string
	Policy  string
	Shards  int
	Records uint64
}

// ID is the cell's stable identity (shard count and record count
// included — see SetCell.ID).
func (c StoreCell) ID() string {
	return SlugID("store", c.Mix, c.Dist, c.Policy,
		fmt.Sprintf("s%d", c.Shards), fmt.Sprintf("r%d", c.Records))
}

// NetCell is one point of the network front-end grid: a YCSB mix
// driven through the group-commit server over Conns pipelined
// in-process connections at pipeline depth Depth (request frames per
// window). Its pwbs_per_op cell is PWBs per *acknowledged* server
// operation — the quantity group commit amortizes against the same
// mix's in-process StoreCell baseline.
type NetCell struct {
	Mix     string
	Dist    string
	Policy  string
	Shards  int
	Records uint64
	Conns   int
	Depth   int
}

// ID is the cell's stable identity (see SetCell.ID).
func (c NetCell) ID() string {
	return SlugID("net", c.Mix, c.Dist, c.Policy,
		fmt.Sprintf("s%d", c.Shards), fmt.Sprintf("r%d", c.Records),
		fmt.Sprintf("c%d", c.Conns), fmt.Sprintf("d%d", c.Depth))
}

// OverloadCell is one point of the admission-control grid: a closed-loop
// YCSB mix offered through pipelined connections at a server whose
// admission rate is capped at RateLimit ops/s (token bucket, burst
// Burst). The loop pushes as hard as it can; the server sheds the
// excess with BUSY instead of queuing it, so the cell's headline
// numbers are goodput (acknowledged ops/s, which must track the cap),
// shed_rate (the fraction of offered ops rejected), and the goodput
// p99 (which must stay bounded precisely because excess work is shed,
// not queued). The embedded NetCell is the load offered; RateLimit 0 is
// the uncapped control cell.
type OverloadCell struct {
	NetCell
	RateLimit float64
	Burst     int
}

// ID is the cell's stable identity (see SetCell.ID).
func (c OverloadCell) ID() string {
	return SlugID("overload", c.Mix, c.Dist, c.Policy,
		fmt.Sprintf("s%d", c.Shards), fmt.Sprintf("r%d", c.Records),
		fmt.Sprintf("c%d", c.Conns), fmt.Sprintf("d%d", c.Depth),
		fmt.Sprintf("rl%d", int(c.RateLimit)))
}

// CombineCell is one point of the embedded flat-combining grid: a YCSB
// mix driven in-process through Combined sessions — Matrix.Threads
// workers each announcing Depth-op vector windows to the store's
// per-shard combiners, which merge concurrent announcements and commit
// each combining window (target size Window) under one fence. Its
// pwbs_per_op cell is the embedded counterpart of the net cells'
// group-commit amortization: no server, no pipeline — the combiner IS
// the batch owner. NoCoalesce disables VSA-style net-delta folding
// (the mix-G control cell); HotKeys pins non-insert draws to a tiny
// key window so FAA traffic piles onto a few counters.
type CombineCell struct {
	Mix        string
	Dist       string
	Policy     string
	Shards     int
	Records    uint64
	Depth      int
	Window     int
	HotKeys    uint64
	NoCoalesce bool
}

// ID is the cell's stable identity (see SetCell.ID). The coalescing
// switch is spelled raw|coal so control and optimized cells can never
// silently join.
func (c CombineCell) ID() string {
	coal := "coal"
	if c.NoCoalesce {
		coal = "raw"
	}
	parts := []string{"combine", c.Mix, c.Dist, c.Policy,
		fmt.Sprintf("s%d", c.Shards), fmt.Sprintf("r%d", c.Records),
		fmt.Sprintf("d%d", c.Depth), fmt.Sprintf("w%d", c.Window), coal}
	if c.HotKeys > 0 {
		parts = append(parts, fmt.Sprintf("h%d", c.HotKeys))
	}
	return SlugID(parts...)
}

// Matrix declares a benchmark run: which cells, and how each is
// measured (threads, warmup, measured duration, repeats). Zero values
// take defaults scaled to the host.
type Matrix struct {
	Name     string
	Threads  int           // default GOMAXPROCS
	Duration time.Duration // per measured repeat; default 100ms
	// Warmup is the discarded warm-up window per cell; zero defaults to
	// Duration/2, any negative value means "no warmup".
	Warmup  time.Duration
	Repeats int   // measured repeats per cell; default 2
	Seed    int64 // workload generator seed (0 is a valid seed)
	// Latency additionally emits p99 cells for store workloads (off for
	// the smoke matrix — tail latency on a shared runner is noise; on
	// for the nightly full matrix).
	Latency bool
	// VirtualClock runs every cell with pmem's virtual-clock cost mode:
	// modeled latency accrues to per-thread counters instead of spin
	// loops. Single-threaded runs execute the identical instruction
	// stream either way, so their pwbs/op cells match spin-mode runs
	// exactly; with more threads, different interleavings can shift
	// pwbs/op slightly (reader-helping flushes, CAS retries). Throughput
	// cells are NOT comparable with spin-mode reports in any case — the
	// report's config records the mode.
	VirtualClock bool
	Set          []SetCell
	Store        []StoreCell
	Net          []NetCell
	Combine      []CombineCell
	Overload     []OverloadCell
}

func (m Matrix) withDefaults() Matrix {
	if m.Threads == 0 {
		m.Threads = runtime.GOMAXPROCS(0)
	}
	if m.Duration == 0 {
		m.Duration = 100 * time.Millisecond
	}
	if m.Warmup == 0 {
		m.Warmup = m.Duration / 2
	}
	if m.Warmup < 0 {
		m.Warmup = 0
	}
	if m.Repeats == 0 {
		m.Repeats = 2
	}
	return m
}

// Config renders the matrix knobs for the report header.
func (m Matrix) Config() map[string]string {
	return map[string]string{
		"matrix":   m.Name,
		"threads":  fmt.Sprint(m.Threads),
		"duration": m.Duration.String(),
		"warmup":   m.Warmup.String(),
		"repeats":  fmt.Sprint(m.Repeats),
		"seed":     fmt.Sprint(m.Seed),
		"vclock":   fmt.Sprint(m.VirtualClock),
	}
}

// Run executes every cell — warmup window discarded, repeats folded
// through the stats kernel — and returns the validated report.
func (m Matrix) Run() (*Report, error) {
	m = m.withDefaults()
	if len(m.Set) == 0 && len(m.Store) == 0 && len(m.Net) == 0 && len(m.Combine) == 0 && len(m.Overload) == 0 {
		return nil, fmt.Errorf("bench: matrix %q has no cells", m.Name)
	}
	rep := NewReport("bench-matrix", m.Config())
	for _, group := range planSet(m.Set) {
		if err := m.runSet(rep, group); err != nil {
			return nil, fmt.Errorf("bench: cell %s: %w", group[0].ID(), err)
		}
	}
	for _, c := range m.Store {
		err := m.runEmbedded(rep, c.ID(),
			store.Options{Shards: c.Shards, Policy: c.Policy}, store.Direct,
			workload.Spec{Mix: c.Mix, Dist: c.Dist, Records: c.Records})
		if err != nil {
			return nil, fmt.Errorf("bench: cell %s: %w", c.ID(), err)
		}
	}
	for _, c := range m.Net {
		if err := m.runWire(rep, c.ID(), c, server.Options{}, false); err != nil {
			return nil, fmt.Errorf("bench: cell %s: %w", c.ID(), err)
		}
	}
	for _, c := range m.Combine {
		err := m.runEmbedded(rep, c.ID(),
			store.Options{
				Shards: c.Shards, Policy: c.Policy,
				CombineWindow: c.Window, CombineNoCoalesce: c.NoCoalesce,
			}, store.Combined,
			workload.Spec{
				Mix: c.Mix, Dist: c.Dist, Records: c.Records,
				Depth: c.Depth, HotKeys: c.HotKeys,
			})
		if err != nil {
			return nil, fmt.Errorf("bench: cell %s: %w", c.ID(), err)
		}
	}
	for _, c := range m.Overload {
		sopts := server.Options{RateLimit: c.RateLimit, RateBurst: c.Burst}
		if err := m.runWire(rep, c.ID(), c.NetCell, sopts, true); err != nil {
			return nil, fmt.Errorf("bench: cell %s: %w", c.ID(), err)
		}
	}
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return rep, nil
}

// window is what one timed window of any cell kind hands the fold.
type window struct {
	ops, pwbs, pfences   uint64
	elided               uint64 // dependency fences not issued
	opsPerSec, pwbsPerOp float64
	p50, p95, p99        time.Duration
	// aux is the cell kind's own rate, if it has one: ops per batch for
	// net cells, shed per offered op for overload cells.
	aux float64
}

// fold is one cell's measured windows: raw counts and latencies summed
// in head, the rate quantities kept per window for the stats kernel.
type fold struct {
	head                    Cell
	tput, pwbRate, p99, aux []float64
}

// repeat runs one cell's measurement schedule — a discarded warmup
// window, then m.Repeats measured windows, each through run — and folds
// the measured ones. Every cell kind goes through it.
func (m Matrix) repeat(run func(time.Duration) (window, error)) (fold, error) {
	var f fold
	if m.Warmup > 0 {
		if _, err := run(m.Warmup); err != nil {
			return f, err
		}
	}
	for i := 0; i < m.Repeats; i++ {
		w, err := run(m.Duration)
		if err != nil {
			return f, err
		}
		f.tput = append(f.tput, w.opsPerSec)
		f.pwbRate = append(f.pwbRate, w.pwbsPerOp)
		f.p99 = append(f.p99, float64(w.p99.Nanoseconds()))
		f.aux = append(f.aux, w.aux)
		f.head.Ops += w.ops
		f.head.PWBs += w.pwbs
		f.head.PFences += w.pfences
		f.head.PFencesElided += w.elided
		f.head.P50Ns += w.p50.Nanoseconds()
		f.head.P95Ns += w.p95.Nanoseconds()
		f.head.P99Ns += w.p99.Nanoseconds()
	}
	n := int64(m.Repeats)
	f.head.P50Ns, f.head.P95Ns, f.head.P99Ns = f.head.P50Ns/n, f.head.P95Ns/n, f.head.P99Ns/n
	return f, nil
}

// headline is the fold's ops/s cell — throughput, or goodput under
// overload — carrying the raw counts and mean latencies.
func (f fold) headline(id string) Cell {
	c := f.head
	c.ID, c.Unit, c.Value = id, "ops/s", stats.Summarize(f.tput)
	return c
}

// rate is a cell summarizing one per-window rate series.
func rate(id, unit string, xs []float64, lowerIsBetter bool) Cell {
	return Cell{ID: id, Unit: unit, Value: stats.Summarize(xs), LowerIsBetter: lowerIsBetter}
}

// emit adds the pair every throughput-shaped cell reports: ops/s and
// pwbs/op, plus the p99 trajectory cell when the matrix asks for it.
func (f fold) emit(rep *Report, id string, latency bool) {
	rep.Add(f.headline(id + "/throughput"))
	rep.Add(rate(id+"/pwbs_per_op", "pwbs/op", f.pwbRate, true))
	if latency {
		rep.Add(rate(id+"/p99", "ns", f.p99, true))
	}
}

// runSet measures one group of set cells that share their build fields
// on one built-and-prefilled instance.
func (m Matrix) runSet(rep *Report, group []SetCell) error {
	perCell := m.Warmup + m.Duration*time.Duration(m.Repeats)
	inst, err := NewInstance(group[0], m.VirtualClock, perCell*time.Duration(len(group)))
	if err != nil {
		return err
	}
	for _, c := range group {
		threads := c.Threads
		if threads == 0 {
			threads = m.Threads
		}
		f, _ := m.repeat(func(d time.Duration) (window, error) {
			return inst.run(c, threads, d), nil
		})
		f.emit(rep, c.ID(), false)
	}
	return nil
}

// loadedStore builds a sharded store sized for records and YCSB-loads
// it in-process — the starting state of every store-backed cell.
func (m Matrix) loadedStore(opts store.Options, records uint64) (*store.Store, error) {
	opts.ExpectedKeys = int(records) * 3
	opts.Mode = dstruct.Automatic
	opts.VirtualClock = m.VirtualClock
	st, err := store.New(opts)
	if err != nil {
		return nil, err
	}
	workload.Load(st, records, m.Threads)
	return st, nil
}

// runEmbedded measures one in-process store cell through the workload
// runner in the given session mode: a StoreCell runs Direct sessions (per-op
// persistence), a CombineCell runs Combined sessions at its vector depth —
// every worker a concurrent announcer, every window fenced once by
// whichever announcer wins the shard's combiner lock. One measurement for
// every mode lets combine cells compare directly against the per-op store
// cells and the server-side net cells.
func (m Matrix) runEmbedded(rep *Report, id string, opts store.Options, mode store.SessionMode, spec workload.Spec) error {
	st, err := m.loadedStore(opts, spec.Records)
	if err != nil {
		return err
	}
	spec.Workers, spec.Seed = m.Threads, m.Seed
	f, err := m.repeat(func(d time.Duration) (window, error) {
		spec.Duration = d
		r, err := workload.Run(st, mode, spec)
		return window{
			ops: r.Ops, pwbs: r.PWBs, pfences: r.PFences, elided: r.PFencesElided,
			opsPerSec: r.OpsPerSec, pwbsPerOp: r.PWBsPerOp,
			p50: r.P50, p95: r.P95, p99: r.P99,
		}, err
	})
	if err != nil {
		return err
	}
	f.emit(rep, id, m.Latency)
	return nil
}

// runWire measures one cell through the network front-end: load the
// store in-process, boot the group-commit server — with sopts' admission
// control, if any — over in-process pipe transports, then drive the
// pipelining client load generator. Throughput and latency are
// client-observed; pwbs/pfences are server-side instruction deltas per
// acknowledged op. A NetCell reports the amortization (throughput,
// pwbs/op, ops/batch); an OverloadCell (overload set) drives the same loop
// flat out at a rate-capped server, which sheds the excess with BUSY, and
// reports goodput, shed rate and the goodput p99. The pipe transport
// delivers every shed response, so the client's shed count must equal the
// server's exactly; a mismatch fails the cell (lost-shed accounting would
// make the shed_rate trajectory lie).
func (m Matrix) runWire(rep *Report, id string, c NetCell, sopts server.Options, overload bool) error {
	st, err := m.loadedStore(store.Options{Shards: c.Shards, Policy: c.Policy}, c.Records)
	if err != nil {
		return err
	}
	// Metrics ride along in every wire cell: the matrix numbers carry the
	// observability cost, and the cross-check below holds the
	// striped counters to the server's own acked-op count.
	sopts.Metrics = true
	srv := server.New(st, sopts)
	defer srv.Close()
	dial := func() (net.Conn, error) {
		cc, sc := net.Pipe()
		go srv.ServeConn(sc)
		return cc, nil
	}
	spec := client.Spec{Spec: workload.Spec{
		Mix: c.Mix, Dist: c.Dist, Records: c.Records,
		Workers: c.Conns, Depth: c.Depth, Seed: m.Seed,
	}}
	f, err := m.repeat(func(d time.Duration) (window, error) {
		spec.Duration = d
		r, err := client.Run(dial, spec)
		if err != nil {
			return window{}, err
		}
		if overload {
			if r.Shed != r.ServerShed {
				return window{}, fmt.Errorf("bench: client counted %d shed ops, server %d", r.Shed, r.ServerShed)
			}
			return window{ops: r.Ops, opsPerSec: r.OpsPerSec, p50: r.P50, p99: r.P99, aux: r.ShedRate}, nil
		}
		return window{
			ops: r.ServerOps, pwbs: r.PWBs, pfences: r.PFences, elided: r.PFencesElided,
			opsPerSec: r.OpsPerSec, pwbsPerOp: r.PWBsPerOp,
			p50: r.P50, p95: r.P95, p99: r.P99, aux: r.OpsPerBatch,
		}, nil
	})
	if err != nil {
		return err
	}
	if got, want := srv.Metrics().OpsTotal(), srv.Stats().OpsServed; got != want {
		return fmt.Errorf("bench: metrics op counters sum to %d, server acked %d", got, want)
	}
	if overload {
		rep.Add(f.headline(id + "/goodput"))
		rep.Add(rate(id+"/shed_rate", "shed/offered", f.aux, false))
		rep.Add(rate(id+"/p99", "ns", f.p99, true))
		return nil
	}
	f.emit(rep, id, false)
	// The batching headline: acknowledged ops per group commit. Tracks
	// the pipeline depth in the closed loop: the amortization itself, not
	// just its downstream pwbs/op effect.
	rep.Add(rate(id+"/ops_per_batch", "ops/batch", f.aux, false))
	if m.Latency {
		rep.Add(rate(id+"/p99", "ns", f.p99, true))
	}
	return nil
}

// CrossSet expands the cross product of structures × policies × modes ×
// update ratios into set cells, skipping the one inapplicable
// combination (link-and-persist on the NM-BST, as in Figure 7).
func CrossSet(dss, policies []string, modes []dstruct.Mode, keyRange uint64, upds []int) []SetCell {
	var out []SetCell
	for _, ds := range dss {
		for _, pol := range policies {
			if pol == core.PolicyLAP && ds == "bst" {
				continue
			}
			for _, mode := range modes {
				for _, u := range upds {
					out = append(out, SetCell{
						DS: ds, Policy: pol, Mode: mode, KeyRange: keyRange, UpdatePct: u,
					})
				}
			}
		}
	}
	return out
}

// Presets are the named matrices the CLI and CI run. "smoke" is a small
// fixed grid, cheap enough for every push, exercising both the set cells
// and the store service. "full" is the nightly matrix: every structure
// and headline policy plus the YCSB mixes.
func Presets() map[string]Matrix {
	return map[string]Matrix{
		"smoke": {
			Name:     "smoke",
			Duration: 80 * time.Millisecond,
			Warmup:   40 * time.Millisecond,
			Repeats:  2,
			Seed:     1,
			Set: CrossSet(
				[]string{"bst", "hashtable"},
				[]string{core.PolicyPlain, core.PolicyHT},
				[]dstruct.Mode{dstruct.Automatic},
				4096, []int{0, 50},
			),
			Store: []StoreCell{
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192},
				{Mix: "c", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192},
			},
		},
		// groupcommit is the fence-amortization comparison: the same
		// YCSB mixes measured in-process with per-op persistence (the
		// store cells — the unbatched baseline) and through the
		// group-commit server at increasing pipeline depths (the net
		// cells). Single-threaded / single-connection so the pwbs/op
		// cells are near-deterministic; at depth ≥ 8 the net cells'
		// pwbs/op must sit strictly below the same mix's store cell,
		// and pfences per op collapse (visible in the cells' raw
		// counts).
		"groupcommit": {
			Name:     "groupcommit",
			Threads:  1,
			Duration: 150 * time.Millisecond,
			Warmup:   75 * time.Millisecond,
			Repeats:  3,
			Seed:     1,
			Store: []StoreCell{
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192},
				{Mix: "d", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192},
			},
			Net: []NetCell{
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Conns: 1, Depth: 1},
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Conns: 1, Depth: 8},
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Conns: 1, Depth: 32},
				{Mix: "d", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Conns: 1, Depth: 8},
				{Mix: "d", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Conns: 1, Depth: 32},
			},
		},
		// combining is the embedded fence-amortization comparison — the
		// flat-combining answer to groupcommit's pipelined server: the
		// same YCSB mixes measured in-process with per-op persistence
		// (the store cells) and through Combined sessions announcing
		// depth-32 vectors into window-128 per-shard combiners — the
		// window spans one full announce wave (4 threads x depth 32), so
		// a whole wave commits under one fence. The combine cells'
		// pwbs/op must sit at or below the groupcommit matrix's depth-32
		// net cells — the combiner merges windows ACROSS sessions, which
		// a per-connection pipeline cannot. The mix-G
		// pair is the net-delta coalescing headline: self-cancelling ±1
		// FAA traffic on one hot counter, measured with coalescing on
		// (coal) and off (raw); the coal cell must persist ≥10x fewer
		// lines per op.
		"combining": {
			Name:     "combining",
			Threads:  4,
			Duration: 150 * time.Millisecond,
			// Mix d inserts draw from a bounded key range; until the range
			// saturates, every insert dirties fresh lines and pwbs/op sits
			// ~2x above steady state. The long warmup runs the cell past
			// that knee so the reported numbers are the plateau, not the
			// fill transient.
			Warmup:  300 * time.Millisecond,
			Repeats: 3,
			Seed:    1,
			Store: []StoreCell{
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192},
				{Mix: "d", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192},
			},
			Combine: []CombineCell{
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Depth: 32, Window: 128},
				{Mix: "d", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Depth: 32, Window: 128},
				{Mix: "g", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Depth: 32, Window: 128, HotKeys: 1},
				{Mix: "g", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Depth: 32, Window: 128, HotKeys: 1, NoCoalesce: true},
			},
		},
		// overload is the admission-control trajectory: the same mix
		// offered flat out against a rate-capped server and against the
		// uncapped control. The capped cells' goodput must track the cap
		// (the rate limiter meters wall-clock ops/s, so these cells are
		// stable across machine speeds) with a nonzero shed_rate and a
		// bounded goodput p99; the control cell pins what the same loop
		// does with shedding off.
		"overload": {
			Name:     "overload",
			Duration: 200 * time.Millisecond,
			Warmup:   100 * time.Millisecond,
			Repeats:  3,
			Seed:     1,
			Overload: []OverloadCell{
				{NetCell: NetCell{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Conns: 2, Depth: 8},
					RateLimit: 3000, Burst: 32},
				{NetCell: NetCell{Mix: "c", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Conns: 2, Depth: 8},
					RateLimit: 3000, Burst: 32},
				{NetCell: NetCell{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Conns: 2, Depth: 8}},
			},
		},
		"full": {
			Name:     "full",
			Duration: 200 * time.Millisecond,
			Warmup:   100 * time.Millisecond,
			Repeats:  3,
			Seed:     1,
			Latency:  true,
			Set: CrossSet(
				[]string{"bst", "hashtable", "list", "skiplist"},
				[]string{core.PolicyPlain, core.PolicyAdjacent, core.PolicyHT, core.PolicyLAP},
				[]dstruct.Mode{dstruct.Automatic},
				10_000, []int{0, 5, 50},
			),
			Store: []StoreCell{
				{Mix: "a", Dist: workload.DistUniform, Policy: core.PolicyHT, Shards: 8, Records: 20_000},
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 8, Records: 20_000},
				{Mix: "b", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 8, Records: 20_000},
				{Mix: "c", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 8, Records: 20_000},
				{Mix: "f", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 8, Records: 20_000},
			},
			Net: []NetCell{
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 8, Records: 20_000, Conns: 2, Depth: 16},
				{Mix: "b", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 8, Records: 20_000, Conns: 2, Depth: 16},
			},
		},
	}
}

// Preset looks up a named matrix.
func Preset(name string) (Matrix, bool) {
	m, ok := Presets()[name]
	return m, ok
}

// PresetNames lists the preset matrices in a stable order.
func PresetNames() []string {
	return []string{"smoke", "groupcommit", "combining", "overload", "full"}
}
