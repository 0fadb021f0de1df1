package server

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"flit/internal/metrics"
	"flit/internal/store"
)

// The server's observability layer. When Options.Metrics is set the
// server carries a Metrics bundle — striped per-connection op counters
// and lock-free latency histograms from internal/metrics — that the
// batch executor records into on the hot path (zero allocations, a few
// atomic adds per op; see BenchmarkServerExec* for the pinned cost) and
// three consumers read from: the Prometheus-style /metrics page
// (WriteMetrics / MetricsHandler), the STATS v2 wire snapshot
// (Stats().Metrics), and the timeseries ring a background sampler fills
// with per-second deltas (StartSampler). With Options.Metrics unset the
// hot path pays one nil check per batch and the consumers degrade: the
// exposition page carries counters only, STATS omits the v2 block, and
// StartSampler declines to start.

// numOpKinds counts the per-op-type metrics families, indexed by store op
// kind (see storeKind).
const numOpKinds = int(store.OpContains) + 1

// opKindNames are the `op` label values, indexed by kind.
var opKindNames = [numOpKinds]string{"get", "put", "delete", "contains"}

// Metrics is the server's metric bundle. All fields are safe for
// concurrent recording and concurrent reading; see internal/metrics.
type Metrics struct {
	// Ops counts acknowledged store operations by type; each batcher
	// writes on its own stripe, so connections never contend.
	Ops [numOpKinds]metrics.Counter
	// Lat is the op service time by type, in nanoseconds: each op's
	// equal share of its batch's announce-to-durable time (the executor
	// pays two clock reads per batch, not one per op — see Batcher.Exec).
	Lat [numOpKinds]metrics.Hist
	// Commit is a batch's whole announce-to-durable time, in nanoseconds:
	// the wait for the combiner, the window and its fence.
	Commit metrics.Hist
	// BatchOps and BatchFences are the store-op and PFence counts per
	// commit window, which the store's combiner records for every window.
	BatchOps, BatchFences *metrics.Hist
	// Depth is the drained pipeline window size in request frames
	// (store ops and PING/STATS alike) per Exec.
	Depth metrics.Hist
	// ConnsOpen tracks currently-open connections.
	ConnsOpen metrics.Gauge
}

// newMetrics builds an initialized bundle over st.
func newMetrics(st *store.Store) *Metrics {
	m := &Metrics{}
	for i := range m.Lat {
		m.Lat[i].Init()
	}
	m.Commit.Init()
	m.BatchOps, m.BatchFences = st.WindowHists()
	m.Depth.Init()
	return m
}

// LatSnapshot fills s with the union of the per-type latency
// histograms — the "all ops" service-time distribution.
func (m *Metrics) LatSnapshot(s *metrics.HistSnapshot) {
	var one metrics.HistSnapshot
	*s = metrics.HistSnapshot{}
	for i := range m.Lat {
		m.Lat[i].Read(&one)
		s.Merge(&one)
	}
}

// WriteMetrics renders the server's full Prometheus text exposition
// page: cumulative counters (always), the histogram families and open-
// connection gauge (when metrics are enabled), and per-shard recovery
// time when the served store was rebuilt from a crash image.
func (s *Server) WriteMetrics(w io.Writer) error {
	st := s.Stats()
	p := metrics.NewPromWriter(w)
	p.Meta("flit_conns_total", "counter", "connections accepted")
	p.Sample("flit_conns_total", "", float64(st.Conns))
	p.Meta("flit_ops_served_total", "counter", "store operations acknowledged (ack => persisted)")
	p.Sample("flit_ops_served_total", "", float64(st.OpsServed))
	p.Meta("flit_batches_total", "counter", "commit windows of the store's combiner")
	p.Sample("flit_batches_total", "", float64(st.Batches))
	p.Meta("flit_drained_lines_total", "counter", "cache lines drained by window commits")
	p.Sample("flit_drained_lines_total", "", float64(st.Drained))
	p.Meta("flit_pwbs_total", "counter", "PWB instructions issued serving requests")
	p.Sample("flit_pwbs_total", "", float64(st.PWBs))
	p.Meta("flit_pfences_total", "counter", "PFence instructions issued serving requests")
	p.Sample("flit_pfences_total", "", float64(st.PFences))
	p.Meta("flit_pfences_elided_total", "counter", "dependency fences found empty and not issued (issued + elided = fences Algorithm 4 asks for)")
	p.Sample("flit_pfences_elided_total", "", float64(st.PFencesElided))
	p.Meta("flit_shards", "gauge", "store shard count")
	p.Sample("flit_shards", "", float64(st.Shards))
	p.Meta("flit_pheap_watermark_words", "gauge", "persistent-heap allocation high-water mark in words; steady under churn when reclamation recycles")
	p.Sample("flit_pheap_watermark_words", "", float64(s.st.Heap().Watermark()))
	p.Meta("flit_mem_threads", "gauge", "live registered pmem threads (released slots excluded); connections register none, the store's combiner one")
	p.Sample("flit_mem_threads", "", float64(len(s.st.Mem().Threads())))
	p.Meta("flit_combined_sessions", "gauge", "open Combined store sessions, one per served connection: the slots every commit window sweeps")
	p.Sample("flit_combined_sessions", "", float64(s.st.CombinedSessions()))
	p.Meta("flit_max_batch", "gauge", "group commit size cap")
	p.Sample("flit_max_batch", "", float64(st.MaxBatch))
	p.Meta("flit_shed_total", "counter", "store operations shed by admission control, by reason")
	p.Sample("flit_shed_total", `reason="busy"`, float64(st.ShedBusy))
	p.Sample("flit_shed_total", `reason="draining"`, float64(st.ShedDraining))
	p.Meta("flit_conns_rejected_total", "counter", "connections rejected at the max-connections cap")
	p.Sample("flit_conns_rejected_total", "", float64(st.ConnsRejected))
	p.Meta("flit_conn_errors_total", "counter", "failed connections by cause")
	for _, cause := range connCauseNames {
		p.Sample("flit_conn_errors_total", fmt.Sprintf("cause=%q", cause), float64(st.ConnErrors[cause]))
	}
	p.Meta("flit_draining", "gauge", "1 while a graceful shutdown is draining connections")
	drainVal := 0.0
	if st.Draining {
		drainVal = 1
	}
	p.Sample("flit_draining", "", drainVal)

	if m := s.metrics; m != nil {
		p.Meta("flit_conns_open", "gauge", "currently open connections")
		p.Sample("flit_conns_open", "", float64(m.ConnsOpen.Load()))
		p.Meta("flit_ops_total", "counter", "acknowledged store operations by type")
		for k, name := range opKindNames {
			p.Sample("flit_ops_total", fmt.Sprintf("op=%q", name), float64(m.Ops[k].Load()))
		}
		var snap metrics.HistSnapshot
		p.Meta("flit_op_seconds", "histogram", "op service time by type (equal share of the batch's announce-to-durable time)")
		for k, name := range opKindNames {
			m.Lat[k].Read(&snap)
			p.Histogram("flit_op_seconds", fmt.Sprintf("op=%q", name), &snap, 1e-9)
		}
		p.Meta("flit_commit_seconds", "histogram", "announce-to-durable time per batch (combiner wait + window + fence)")
		m.Commit.Read(&snap)
		p.Histogram("flit_commit_seconds", "", &snap, 1e-9)
		p.Meta("flit_batch_ops", "histogram", "store operations per commit window")
		m.BatchOps.Read(&snap)
		p.Histogram("flit_batch_ops", "", &snap, 1)
		p.Meta("flit_batch_pfences", "histogram", "PFence instructions per commit window")
		m.BatchFences.Read(&snap)
		p.Histogram("flit_batch_pfences", "", &snap, 1)
		p.Meta("flit_pipeline_depth", "histogram", "drained pipeline window size in request frames")
		m.Depth.Read(&snap)
		p.Histogram("flit_pipeline_depth", "", &snap, 1)
	}

	if rs := s.st.LastRecovery(); rs != nil {
		p.Meta("flit_recovery_seconds", "gauge", "per-shard rebuild time of the last crash recovery")
		for i, d := range rs.Shards {
			p.Sample("flit_recovery_seconds", fmt.Sprintf("shard=%q", fmt.Sprint(i)), d.Seconds())
		}
		p.Meta("flit_recovery_total_seconds", "gauge", "wall time of the last shard-parallel recovery")
		p.Sample("flit_recovery_total_seconds", "", rs.Elapsed.Seconds())
		p.Meta("flit_recovery_keys", "gauge", "keys present after the last recovery")
		p.Sample("flit_recovery_keys", "", float64(rs.Keys))
		p.Meta("flit_recovery_rebuilt_buckets", "gauge", "bucket chains the last recovery rewrote (0 on a clean image)")
		p.Sample("flit_recovery_rebuilt_buckets", "", float64(rs.Rebuilt))
	}
	return p.Flush()
}

// MetricsHandler serves WriteMetrics over HTTP — mount it at /metrics
// for Prometheus-style scraping.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.WriteMetrics(w); err != nil {
			// Headers are gone; all we can do is drop the connection.
			return
		}
	})
}

// StartSampler launches the background sampler: every interval it
// reads the cumulative counters and histograms, computes the interval
// deltas (ops/s, p50/p95/p99 service time, pwbs/op, pfences/op,
// ops/batch) and pushes one metrics.Sample into a fresh ring holding
// the last capacity samples. stop halts the sampler and waits for it;
// the ring stays readable after. Requires Options.Metrics — with the
// bundle disabled there is nothing to sample and it returns (nil,
// no-op).
func (s *Server) StartSampler(interval time.Duration, capacity int) (*metrics.Ring, func()) {
	m := s.metrics
	if m == nil {
		return nil, func() {}
	}
	if interval <= 0 {
		interval = time.Second
	}
	ring := metrics.NewRing(capacity)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var prevLat metrics.HistSnapshot
		m.LatSnapshot(&prevLat)
		prev := s.Stats()
		prevT := time.Now()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			cur := s.Stats()
			now := time.Now()
			var lat metrics.HistSnapshot
			m.LatSnapshot(&lat)
			interval := lat
			interval.Sub(&prevLat)
			sm := metrics.Sample{
				UnixNano: now.UnixNano(),
				Ops:      cur.OpsServed,
				Batches:  cur.Batches,
				Conns:    m.ConnsOpen.Load(),
				P50Ns:    interval.Quantile(0.50),
				P95Ns:    interval.Quantile(0.95),
				P99Ns:    interval.Quantile(0.99),
			}
			if dt := now.Sub(prevT).Seconds(); dt > 0 {
				sm.OpsPerSec = float64(cur.OpsServed-prev.OpsServed) / dt
			}
			if dops := cur.OpsServed - prev.OpsServed; dops > 0 {
				sm.PWBsPerOp = float64(cur.PWBs-prev.PWBs) / float64(dops)
				sm.PFencesPerOp = float64(cur.PFences-prev.PFences) / float64(dops)
			}
			if dbatches := cur.Batches - prev.Batches; dbatches > 0 {
				sm.OpsPerBatch = float64(cur.OpsServed-prev.OpsServed) / float64(dbatches)
			}
			ring.Push(sm)
			prev, prevT, prevLat = cur, now, lat
		}
	}()
	var stopOnce sync.Once
	return ring, func() {
		stopOnce.Do(func() { close(done) })
		wg.Wait()
	}
}
