package metrics

import "sync"

// Sample is one timeseries point: a per-interval view of the server
// computed by the sampler from consecutive cumulative snapshots. Rate
// and per-op fields cover the interval since the previous sample;
// Ops/Batches are the cumulative totals at sample time, so consumers
// can re-derive any window.
type Sample struct {
	UnixNano int64 `json:"unix_nano"`

	Ops     uint64 `json:"ops"`     // cumulative acked store ops
	Batches uint64 `json:"batches"` // cumulative group commits
	Conns   int64  `json:"conns"`   // open connections at sample time

	OpsPerSec    float64 `json:"ops_per_sec"`    // interval rate
	P50Ns        int64   `json:"p50_ns"`         // interval op service time
	P95Ns        int64   `json:"p95_ns"`         //
	P99Ns        int64   `json:"p99_ns"`         //
	PWBsPerOp    float64 `json:"pwbs_per_op"`    // interval persistence cost
	PFencesPerOp float64 `json:"pfences_per_op"` //
	OpsPerBatch  float64 `json:"ops_per_batch"`  // interval amortization
}

// Ring is a fixed-capacity timeseries of Samples: the sampler pushes
// once per interval, overwriting the oldest point when full; live
// views read the most recent point (Last) or the whole window
// (Snapshot). A mutex is fine here — the ring is touched a handful of
// times per second, never on an op path.
type Ring struct {
	mu   sync.Mutex
	buf  []Sample
	head int // next write position
	n    int // occupied
}

// NewRing creates a ring holding up to capacity samples (min 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Sample, capacity)}
}

// Push appends s, evicting the oldest sample when full.
func (r *Ring) Push(s Sample) {
	r.mu.Lock()
	r.buf[r.head] = s
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Last returns the most recent sample, if any.
func (r *Ring) Last() (Sample, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return Sample{}, false
	}
	return r.buf[(r.head-1+len(r.buf))%len(r.buf)], true
}

// Snapshot appends the held samples to dst, oldest first, and returns
// the extended slice.
func (r *Ring) Snapshot(dst []Sample) []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := (r.head - r.n + len(r.buf)) % len(r.buf)
	for i := 0; i < r.n; i++ {
		dst = append(dst, r.buf[(start+i)%len(r.buf)])
	}
	return dst
}
