// Package metrics is the server observability core: a small,
// dependency-free set of hot-path-safe primitives — striped atomic
// counters, gauges, and a lock-free log-bucketed latency histogram (the
// repository's one histogram: the server, the load generator and the
// in-process workload runner all record into it) — plus the cold-path
// machinery that exposes them: point-in-time snapshots with quantiles, a
// Prometheus text-exposition writer and validator (prom.go), and a
// fixed-capacity timeseries ring for live views (ring.go).
//
// The design discipline matches the rest of the hot path (PR 3): a
// recorded observation is a handful of atomic adds — zero allocations,
// no locks, no shared cacheline ping-pong beyond the histogram bucket
// actually hit. Counters are striped across padded cachelines so
// concurrent connections never contend on a counter word; histograms
// share bucket words (two connections only collide when they record
// the same latency bucket at the same instant), which keeps a Hist at
// one atomic add per observation instead of stripes × 8KB of memory.
//
// Readers (the /metrics endpoint, STATS snapshots, the ring sampler)
// are wait-free with respect to writers: they load each word atomically
// and tolerate the transient skew of a snapshot taken mid-record. Every
// exported total is monotone, so interval deltas are always
// non-negative.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// CounterStripes is the stripe count of a Counter: enough that a
// realistic connection fleet spreads across distinct cachelines, small
// enough that a counter stays cheap to sum and cheap to hold.
const CounterStripes = 16

// stripe is one padded counter cell: the value plus enough padding to
// fill a 64-byte cacheline, so adjacent stripes never false-share.
type stripe struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotone counter striped across padded cachelines.
// Writers pick a stripe (any int — it is masked) and stay on it; a
// connection handler uses its connection id, so two connections only
// share a cacheline when their ids collide mod CounterStripes.
type Counter struct {
	s [CounterStripes]stripe
}

// Add adds d on the given stripe.
//
//flit:hotpath
func (c *Counter) Add(stripe int, d uint64) {
	c.s[stripe&(CounterStripes-1)].v.Add(d)
}

// Inc adds one on the given stripe.
//
//flit:hotpath
func (c *Counter) Inc(stripe int) { c.Add(stripe, 1) }

// Load sums the stripes. Monotone across calls (each stripe is).
func (c *Counter) Load() uint64 {
	var sum uint64
	for i := range c.s {
		sum += c.s[i].v.Load()
	}
	return sum
}

// Gauge is an instantaneous signed value (open connections, pipeline
// occupancy). Not striped: gauges are read as often as written and a
// striped sum of signed deltas would cost more than it saves at the
// write rates gauges see.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
//
//flit:hotpath
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrement).
//
//flit:hotpath
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram geometry (HDR-style log-linear): exact below 2^SubBits, then
// SubBuckets sub-buckets per power of two, ≤ 1/SubBuckets relative
// quantile error.
const (
	SubBits    = 4
	SubBuckets = 1 << SubBits
	NumBuckets = 64 * SubBuckets
)

// Bucket maps a non-negative value to its bucket index.
//
//flit:hotpath
func Bucket(u uint64) int {
	if u < SubBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // >= SubBits
	mant := (u >> (uint(exp) - SubBits)) & (SubBuckets - 1)
	return int(uint(exp-SubBits+1)<<SubBits | uint(mant))
}

// BucketValue returns bucket i's representative (upper-mid) value, the
// quantile interpolation point.
func BucketValue(i int) int64 {
	if i < SubBuckets {
		return int64(i)
	}
	exp := uint(i>>SubBits) + SubBits - 1
	mant := uint64(i & (SubBuckets - 1))
	lo := (uint64(SubBuckets) | mant) << (exp - SubBits)
	return int64(lo + (uint64(1)<<(exp-SubBits))/2)
}

// BucketUpperBound returns bucket i's inclusive upper edge — the
// largest value the bucket can hold, the Prometheus `le` boundary.
// Strictly increasing in i.
func BucketUpperBound(i int) uint64 {
	if i < SubBuckets {
		return uint64(i)
	}
	exp := uint(i>>SubBits) + SubBits - 1
	mant := uint64(i & (SubBuckets - 1))
	lo := (uint64(SubBuckets) | mant) << (exp - SubBits)
	return lo + (uint64(1) << (exp - SubBits)) - 1
}

// Hist is a fixed-size lock-free latency histogram: concurrent
// writers Record with three atomic adds (bucket, sum, and — rarely —
// a min/max CAS); concurrent readers snapshot without stopping them.
// The zero value is NOT ready: call Init (or NewHist) so the min
// tracker starts at +inf.
type Hist struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Uint64 // Σ recorded values
	min    atomic.Int64  // smallest recorded; MaxInt64 while empty
	max    atomic.Int64
}

// NewHist allocates and initializes a histogram.
func NewHist() *Hist {
	h := &Hist{}
	h.Init()
	return h
}

// Init prepares a zero-value (usually embedded) histogram for use.
// Must happen-before any Record.
func (h *Hist) Init() { h.min.Store(math.MaxInt64) }

// RecordNs adds one observation (negative values clamp to zero). Safe
// for any number of concurrent callers; never allocates.
//
//flit:hotpath
func (h *Hist) RecordNs(ns int64) {
	if ns < 0 {
		ns = 0
	}
	u := uint64(ns)
	h.counts[Bucket(u)].Add(1)
	h.sum.Add(u)
	// The CAS loops run only while the observation extends the range —
	// a handful of times over a histogram's whole life. Steady state is
	// two plain atomic loads.
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Record adds one duration observation.
func (h *Hist) Record(d time.Duration) { h.RecordNs(d.Nanoseconds()) }

// RecordNNs adds n observations of the same value in one shot — a
// single weighted bucket add instead of n RecordNs calls. The batch
// executor uses it to attribute a batch's execution window to its ops
// without paying per-op atomics. No-op when n is 0.
//
//flit:hotpath
func (h *Hist) RecordNNs(ns int64, n uint64) {
	if n == 0 {
		return
	}
	if ns < 0 {
		ns = 0
	}
	u := uint64(ns)
	h.counts[Bucket(u)].Add(n)
	h.sum.Add(u * n)
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Read fills s with a point-in-time snapshot. Concurrent-safe: each
// word is loaded atomically. A snapshot taken while writers run can be
// mid-record skewed (a bucket incremented but the sum not yet, or vice
// versa); all fields are monotone, so snapshot deltas (Sub) are always
// non-negative, and after writers quiesce a snapshot is exact.
func (h *Hist) Read(s *HistSnapshot) {
	var n uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		n += c
	}
	s.Count = n
	s.Sum = h.sum.Load()
	s.MinNs = h.min.Load()
	s.MaxNs = h.max.Load()
	if s.Count == 0 {
		s.MinNs, s.MaxNs = 0, 0
	}
}

// HistSnapshot is a plain (non-atomic) copy of a Hist: the input to
// quantiles, exposition, interval deltas and merges.
type HistSnapshot struct {
	Counts [NumBuckets]uint64
	Count  uint64 // Σ Counts
	Sum    uint64 // Σ recorded values
	MinNs  int64
	MaxNs  int64
}

// Quantile returns the q-th quantile (q in [0,1]), clamped into
// [MinNs, MaxNs] — with a handful of samples a bucket midpoint could
// otherwise report a value nobody measured.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(s.Count))
	if target >= s.Count {
		target = s.Count - 1
	}
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if c > 0 && seen > target {
			v := BucketValue(i)
			if s.MaxNs > 0 && v > s.MaxNs {
				v = s.MaxNs
			}
			if v < s.MinNs {
				v = s.MinNs
			}
			return v
		}
	}
	return s.MaxNs
}

// Mean returns the average observation (0 when empty).
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Sub subtracts prev from s in place, turning two cumulative snapshots
// into an interval distribution. Counts and Sum are exact deltas
// (monotone, so never negative with snapshots of the same Hist taken
// in order); Min/Max cannot be deltaed — the interval keeps s's
// cumulative MaxNs as its clamp ceiling and drops the floor to 0.
func (s *HistSnapshot) Sub(prev *HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] -= prev.Counts[i]
	}
	s.Count -= prev.Count
	s.Sum -= prev.Sum
	s.MinNs = 0
}

// Merge accumulates o into s (union of two disjoint distributions).
func (s *HistSnapshot) Merge(o *HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Count > 0 && (s.Count == o.Count || o.MinNs < s.MinNs) {
		s.MinNs = o.MinNs
	}
	if o.MaxNs > s.MaxNs {
		s.MaxNs = o.MaxNs
	}
}
