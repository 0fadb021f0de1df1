package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"flit/internal/pmem"
	"flit/internal/server"
	"flit/internal/store"
)

// runStats is everything one run of one workload measured.
type runStats struct {
	sp *spec
	sc scale

	ops     int       // operations in the timed segments
	segNs   []float64 // wall time of each timed segment
	segTail []float64 // per segment: the guarded tail percentile of the sample times
	segP50  []float64 // per segment: the median sample time
	tailPct float64   // the percentile segTail holds (95 at full scale)
	samples int       // latency samples per segment
	cpuNs   float64   // user+system CPU over the timed segments (traced runs)

	mem     pmem.Stats // instructions issued in the timed segments
	vtime   uint64     // modelled cost accrued in the timed segments
	mallocs uint64     // Go heap objects allocated in the timed segments
	batches uint64     // group commits the server issued (net)
	srvOps  uint64     // store ops the server acknowledged (net)

	watermark0, watermark1 uint64 // heap watermark around the timed segments
	liveKeys               int
	digest                 uint64 // of the generated op stream
	responses              uint64 // digest of every result the store returned

	setup     []float64 // every complete set-up, seconds: the one the workload ran on, then the rounds' trials
	recover   []float64 // the rounds' store.Recover trials, seconds, on copies of the crash image taken before the first round
	rec       recovered // the durability check after the last round
	mismatch  int       // results that disagreed with the oracle
	attempted int
}

func (rs *runStats) failed() int { return rs.mismatch + rs.rec.mismatch }

// runner executes segments against a world and checks them.
type runner struct {
	sp   *spec
	w    *world
	sess *store.Sess[[]byte] // embedded workloads
	or   *oracle

	seg    *segment
	resVal []uint64
	resOk  []bool
	stamps []int64 // one before the first sample and one after each
	epoch  time.Time
	req    server.Request

	responses uint64
}

func newRunner(sp *spec, sc scale, w *world) *runner {
	r := &runner{
		sp: sp, w: w, or: newOracle(sc.records),
		seg:    newSegment(sc.segOps),
		resVal: make([]uint64, sc.segOps),
		resOk:  make([]bool, sc.segOps),
		stamps: make([]int64, 0, sc.segOps/sp.sample+2),
		epoch:  time.Now(),
	}
	if !sp.net {
		r.sess = store.Open[[]byte](w.st, store.Direct)
	}
	return r
}

func (r *runner) now() int64 { return int64(time.Since(r.epoch)) }

// exec runs the current segment; nothing else happens between the first and
// the last stamp. Results are parked in arrays and checked afterwards.
func (r *runner) exec() error {
	switch {
	case !r.sp.net:
		r.execEmbedded()
		return nil
	case r.sp.sample == 1:
		return r.execDepth1()
	default:
		return r.execPipelined()
	}
}

func (r *runner) execEmbedded() {
	seg, sess, n := r.seg, r.sess, len(r.seg.kinds)
	r.stamps = append(r.stamps[:0], r.now())
	for i := 0; i < n; {
		for end := min(i+r.sp.sample, n); i < end; i++ {
			key := seg.key(i)
			switch seg.kinds[i] {
			case opGet:
				r.resVal[i], r.resOk[i] = sess.Get(key)
			case opPut:
				r.resOk[i] = sess.Put(key, seg.vals[i])
			default:
				r.resOk[i] = sess.Delete(key)
			}
		}
		r.stamps = append(r.stamps, r.now())
	}
}

func (r *runner) execDepth1() error {
	seg, c := r.seg, r.w.conn
	var err error
	r.stamps = append(r.stamps[:0], r.now())
	for i := range seg.kinds {
		key := seg.key(i)
		switch seg.kinds[i] {
		case opGet:
			r.resVal[i], r.resOk[i], err = c.Get(key)
		case opPut:
			r.resOk[i], err = c.Put(key, seg.vals[i])
		default:
			r.resOk[i], err = c.Delete(key)
		}
		if err != nil {
			return err
		}
		r.stamps = append(r.stamps, r.now())
	}
	return nil
}

var wireOp = [...]byte{opGet: server.OpGet, opPut: server.OpPut, opDelete: server.OpDelete}

func (r *runner) execPipelined() error {
	seg, c, n := r.seg, r.w.conn, len(r.seg.kinds)
	r.stamps = append(r.stamps[:0], r.now())
	for i := 0; i < n; {
		end := min(i+r.sp.sample, n)
		for j := i; j < end; j++ {
			r.req = server.Request{Op: wireOp[seg.kinds[j]], Key: seg.key(j), Val: seg.vals[j]}
			c.Send(&r.req)
		}
		if err := c.Flush(); err != nil {
			return err
		}
		for ; i < end; i++ {
			resp, err := c.Recv()
			if err != nil {
				return err
			}
			switch {
			case seg.kinds[i] == opGet && resp.Status <= server.StatusNotFound:
				r.resVal[i], r.resOk[i] = resp.Val, resp.Status == server.StatusOK
			case resp.Status == server.StatusOK:
				r.resOk[i] = resp.Flag
			default:
				return fmt.Errorf("op %d: status %d", i, resp.Status)
			}
		}
		r.stamps = append(r.stamps, r.now())
	}
	return nil
}

// check compares the segment's results with the oracle, in order, and
// returns how many disagreed. It folds the results into r.responses.
func (r *runner) check() int {
	bad := 0
	seg := r.seg
	for i, kind := range seg.kinds {
		gotVal := uint64(0)
		if kind == opGet {
			gotVal = r.resVal[i]
		}
		if r.resOk[i] {
			gotVal ^= 1 << 63
		}
		r.responses = mix(r.responses, gotVal)
		gotVal &^= 1 << 63
		if !r.or.apply(kind, seg.idx[i], seg.vals[i], gotVal, r.resOk[i]) {
			bad++
		}
	}
	return bad
}

func (r *runner) close() {
	if r.sess != nil {
		r.sess.Close()
	}
}

func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedSegment fills the next segment from the stream, executes it, adds
// its wall time and the tail of its sample times to the run and checks its
// results.
func (r *runner) timedSegment(rs *runStats, str *stream, tr *tracer, root int) error {
	str.fill(r.seg)
	var cpu0 float64
	if tr != nil {
		cpu0 = cpuNow()
	}
	span := tr.begin("segment", root)
	if err := r.exec(); err != nil {
		return err
	}
	tr.end(span)
	if tr != nil {
		rs.cpuNs += cpuNow() - cpu0
	}
	rs.segNs = append(rs.segNs, float64(r.stamps[len(r.stamps)-1]-r.stamps[0]))
	// Turn the stamps into sample durations in place.
	d := r.stamps[:len(r.stamps)-1]
	for j := range d {
		d[j] = r.stamps[j+1] - r.stamps[j]
	}
	tail, p50 := tailAndMedian(d)
	rs.segTail = append(rs.segTail, tail)
	rs.segP50 = append(rs.segP50, p50)
	rs.samples = len(d)
	rs.mismatch += r.check()
	return nil
}

// runWorkload is one run: the set-up, warm-up, sc.rounds rounds of exactly
// sc.segsPerRound x sc.segOps operations each, and the crash/recover check.
// Between the segments of one round and the next it times sc.trials more
// complete set-ups and store.Recover calls, so all four timings span the whole
// run. tr, when non-nil, makes it the traced run: spans per segment, the
// counting transport and CPU time per segment.
func runWorkload(sp *spec, sc scale, seed int64, policy, tmpDir string, tr *tracer) (*runStats, error) {
	rs := &runStats{
		sp: sp, sc: sc,
		segNs:   make([]float64, 0, sc.segments()),
		segTail: make([]float64, 0, sc.segments()),
		segP50:  make([]float64, 0, sc.segments()),
		setup:   make([]float64, 0, sc.rounds*sc.trials+1),
		recover: make([]float64, 0, sc.rounds*sc.trials),
	}
	var wrap *transportCounts
	if tr != nil {
		wrap = &tr.transport
	}
	w, setup, err := timedBuild(sp, sc, policy, tmpDir, wrap)
	if err != nil {
		return nil, err
	}
	defer w.close()
	rs.setup = append(rs.setup, setup)

	str, err := newStream(sp, sc.records, seed)
	if err != nil {
		return nil, err
	}
	r := newRunner(sp, sc, w)
	defer r.close()

	for i := 0; i < sc.warmup; i++ {
		str.fill(r.seg)
		if err := r.exec(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		rs.mismatch += r.check()
	}
	rs.attempted += sc.warmup * sc.segOps

	// The server's handler is parked in a read and the session is ours: no
	// pmem thread is running, as CrashImage and ResetStats require. The
	// image is what the rounds' recoveries rebuild; ResetStats zeroes virtual
	// time too. The set-ups and recoveries between the segments work on
	// memories of their own, so the counters below see the segments alone.
	mem := w.st.Mem()
	img := mem.CrashImage(pmem.DropUnfenced, seed)
	imgWatermark := w.st.Heap().Watermark()
	mem.ResetStats()
	rs.watermark0 = imgWatermark
	var srv0 server.Stats
	if w.srv != nil {
		srv0 = w.srv.Stats()
	}
	if wrap != nil {
		wrap.reset()
	}
	root := tr.begin(sp.name, -1)
	var ms0, ms1 runtime.MemStats

	for i := 0; i < sc.rounds; i++ {
		runtime.ReadMemStats(&ms0)
		for j := 0; j < sc.segsPerRound; j++ {
			if err := r.timedSegment(rs, str, tr, root); err != nil {
				return nil, fmt.Errorf("round %d segment %d: %w", i, j, err)
			}
		}
		runtime.ReadMemStats(&ms1)
		rs.mallocs += ms1.Mallocs - ms0.Mallocs

		for j := 0; j < sc.trials; j++ {
			w2, setup, err := timedBuild(sp, sc, policy, tmpDir, nil)
			if err != nil {
				return nil, err
			}
			w2.close()
			rs.setup = append(rs.setup, setup)
			_, _, d, err := timedRecover(img, imgWatermark, mem.Config(), w.opts)
			if err != nil {
				return nil, err
			}
			rs.recover = append(rs.recover, d)
		}
	}

	tr.end(root)
	rs.ops = sc.segments() * sc.segOps
	rs.attempted += rs.ops
	_, rs.tailPct = tailRank(rs.samples)
	rs.digest, rs.responses = str.hash, r.responses

	r.close()
	srv := w.srv
	if err := w.close(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	if srv != nil { // read once its handlers have returned and folded their last batch
		srv1 := srv.Stats()
		rs.batches = srv1.Batches - srv0.Batches
		rs.srvOps = srv1.OpsServed - srv0.OpsServed
	}
	rs.mem = mem.TotalStats()
	rs.vtime = mem.MaxVirtualTime()
	if want := modelCost(mem.Config(), rs.mem); rs.vtime != want {
		return nil, fmt.Errorf("modelled cost: the busiest pmem thread accrued %d of %d units, so more than one thread ran the workload", rs.vtime, want)
	}
	rs.watermark1 = w.st.Heap().Watermark()
	rs.liveKeys = r.or.live()

	rs.rec, err = w.crashAndRecover(seed, r.or)
	if err != nil {
		return nil, err
	}
	rs.attempted += rs.rec.checked
	return rs, nil
}

// modelCost is the virtual time the counted instructions were charged. One
// pmem thread executes each workload (the session's, or the connection's
// batcher on net_*), so Memory.MaxVirtualTime, a maximum over threads, must
// equal it; were a second thread to share the work, the maximum would fall
// short of this total and sim_cost_per_op would under-report.
func modelCost(cfg pmem.Config, s pmem.Stats) uint64 {
	return s.PWBs*uint64(cfg.PWBCost) + s.PFences*uint64(cfg.PFenceCost) +
		s.Drained*uint64(cfg.PFenceEntryCost) + s.Misses*uint64(cfg.MissCost)
}
