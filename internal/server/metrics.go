package server

import (
	"fmt"
	"io"
	"net/http"

	"flit/internal/metrics"
	"flit/internal/store"
)

// The server's observability layer. The counters are always kept: the
// per-kind op counts (striped per connection; their sum is
// Stats.OpsServed), the open-connection count, the shed counts and the
// store combiner's account of its windows. When Options.Metrics is set
// the server also carries a Metrics bundle — lock-free latency and
// batch-shape histograms from internal/metrics — that the batch executor
// records into on the hot path (zero allocations, two clock reads and a
// few atomic adds per batch; see BenchmarkServerExec* for the pinned
// cost). Both are read two ways: the Prometheus-style /metrics page
// (WriteMetrics / MetricsHandler) and the STATS v2 wire snapshot
// (Stats). An interval is the difference of two snapshots (Stats.Since;
// OpLatency for the service-time histogram). With Options.Metrics unset
// the hot path pays one nil check per batch, the exposition page carries
// counters only and STATS omits the v2 block.

// numOpKinds counts the per-op-type metrics families, indexed by store op
// kind (see storeKind).
const numOpKinds = int(store.OpContains) + 1

// opKindNames are the `op` label values, indexed by kind.
var opKindNames = [numOpKinds]string{"get", "put", "delete", "contains"}

// Metrics is the server's histogram bundle. All fields are safe for
// concurrent recording and concurrent reading; see internal/metrics.
type Metrics struct {
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

// OpLatency fills h with the union of the per-type latency histograms —
// the cumulative "all ops" service-time distribution — and reports
// whether the server records one (Options.Metrics); without it h is left
// empty. HistSnapshot.Sub of two reads is the interval's distribution.
func (s *Server) OpLatency(h *metrics.HistSnapshot) bool {
	*h = metrics.HistSnapshot{}
	m := s.metrics
	if m == nil {
		return false
	}
	var one metrics.HistSnapshot
	for i := range m.Lat {
		m.Lat[i].Read(&one)
		h.Merge(&one)
	}
	return true
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
	res := s.st.Resources()
	p.Meta("flit_mem_threads", "gauge", "live registered pmem threads (released slots excluded); connections register none, the store's combiner one")
	p.Sample("flit_mem_threads", "", float64(res.Threads))
	p.Meta("flit_heap_arenas", "gauge", "live persistent-heap arenas; connections make none, the store's combiner one")
	p.Sample("flit_heap_arenas", "", float64(res.Arenas))
	p.Meta("flit_reclaim_handles", "gauge", "reclamation handles in the store's domain; connections register none, the store's combiner one")
	p.Sample("flit_reclaim_handles", "", float64(res.Handles))
	p.Meta("flit_combined_sessions", "gauge", "open Combined store sessions, one per served connection: the slots every commit window sweeps")
	p.Sample("flit_combined_sessions", "", float64(res.CombinedSessions))
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
		p.Sample("flit_conns_open", "", float64(st.ConnsOpen))
		p.Meta("flit_ops_total", "counter", "acknowledged store operations by type")
		for k, name := range opKindNames {
			p.Sample("flit_ops_total", fmt.Sprintf("op=%q", name), float64(s.ops[k].Load()))
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
