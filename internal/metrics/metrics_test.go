package metrics

import (
	"math/rand"
	"sync"
	"testing"
)

// TestBucketUpperBound checks the le edges: each bucket's upper bound
// still maps into the bucket, the next value maps past it, and the
// edges strictly increase.
func TestBucketUpperBound(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < NumBuckets; i++ {
		ub := BucketUpperBound(i)
		if int64(ub) <= prev {
			t.Fatalf("bucket %d: upper bound %d not increasing (prev %d)", i, ub, prev)
		}
		prev = int64(ub)
		if ub > 1<<62 {
			break // past the nanosecond range the histogram can see
		}
		if got := Bucket(ub); got != i {
			t.Fatalf("Bucket(upper(%d)=%d) = %d", i, ub, got)
		}
		if got := Bucket(ub + 1); got != i+1 {
			t.Fatalf("Bucket(upper(%d)+1) = %d, want %d", i, got, i+1)
		}
	}
}

// TestHotPathZeroAlloc pins the acceptance criterion: a recorded
// observation — histogram, counter or gauge — allocates nothing.
func TestHotPathZeroAlloc(t *testing.T) {
	h := NewHist()
	var c Counter
	var g Gauge
	ns := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		h.RecordNs(ns)
		c.Inc(3)
		g.Add(1)
		ns += 1237
	}); n != 0 {
		t.Fatalf("hot-path record allocates %.1f objects/op, want 0", n)
	}
}

// TestCounterConcurrent sums striped adds across goroutines.
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 32, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc(w)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("counter sums to %d, want %d", got, workers*per)
	}
}

// TestHistConcurrent hammers one histogram from many goroutines and
// checks nothing is lost: bucket sum, count and value sum all match.
func TestHistConcurrent(t *testing.T) {
	h := NewHist()
	const workers, per = 16, 5_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				h.RecordNs(rng.Int63n(1 << 30))
			}
		}(w)
	}
	wg.Wait()
	var s HistSnapshot
	h.Read(&s)
	if s.Count != workers*per {
		t.Fatalf("count %d, want %d", s.Count, workers*per)
	}
	var rebuilt uint64
	for _, c := range s.Counts {
		rebuilt += c
	}
	if rebuilt != s.Count {
		t.Fatalf("bucket sum %d != count %d", rebuilt, s.Count)
	}
	if s.MinNs < 0 || s.MaxNs >= 1<<30 || s.MinNs > s.MaxNs {
		t.Fatalf("implausible range [%d, %d]", s.MinNs, s.MaxNs)
	}
}

// TestRecordNNs pins the weighted record to n individual records: same
// buckets, count, sum, min, max — and therefore identical quantiles.
func TestRecordNNs(t *testing.T) {
	a, b := NewHist(), NewHist()
	vals := []int64{0, 1, 17, 300, 4096, 1 << 20, 1<<40 + 7}
	ns := []uint64{1, 2, 3, 64, 1000, 5, 1}
	for i, v := range vals {
		a.RecordNNs(v, ns[i])
		for j := uint64(0); j < ns[i]; j++ {
			b.RecordNs(v)
		}
	}
	a.RecordNNs(99, 0) // weight 0 must be a no-op
	var sa, sb HistSnapshot
	a.Read(&sa)
	b.Read(&sb)
	if sa != sb {
		t.Fatalf("weighted and individual records diverge:\n%+v\n%+v", sa, sb)
	}
}

// TestSnapshotSubMerge checks interval deltas and unions.
func TestSnapshotSubMerge(t *testing.T) {
	h := NewHist()
	for i := int64(0); i < 1000; i++ {
		h.RecordNs(i * 1000)
	}
	var first HistSnapshot
	h.Read(&first)
	for i := int64(0); i < 500; i++ {
		h.RecordNs(i * 2000)
	}
	var second HistSnapshot
	h.Read(&second)

	delta := second
	delta.Sub(&first)
	if delta.Count != 500 {
		t.Fatalf("interval count %d, want 500", delta.Count)
	}
	if delta.Quantile(1) > second.MaxNs {
		t.Fatalf("interval quantile above cumulative max")
	}

	var a, b HistSnapshot
	ha, hb := NewHist(), NewHist()
	ha.RecordNs(10)
	ha.RecordNs(100)
	hb.RecordNs(5)
	hb.RecordNs(1_000_000)
	ha.Read(&a)
	hb.Read(&b)
	a.Merge(&b)
	if a.Count != 4 || a.MinNs != 5 || a.MaxNs != 1_000_000 {
		t.Fatalf("merge: count=%d min=%d max=%d", a.Count, a.MinNs, a.MaxNs)
	}
	var empty HistSnapshot
	empty.Merge(&b)
	if empty.MinNs != 5 || empty.MaxNs != 1_000_000 || empty.Count != 2 {
		t.Fatalf("merge into empty: %+v", empty)
	}
}

// TestRing checks capacity, eviction and ordering.
func TestRing(t *testing.T) {
	r := NewRing(4)
	if _, ok := r.Last(); ok {
		t.Fatal("empty ring reports a last sample")
	}
	for i := 1; i <= 6; i++ {
		r.Push(Sample{Ops: uint64(i)})
	}
	if n := len(r.Snapshot(nil)); n != 4 {
		t.Fatalf("len %d, want 4", n)
	}
	last, ok := r.Last()
	if !ok || last.Ops != 6 {
		t.Fatalf("last = %+v, want Ops=6", last)
	}
	got := r.Snapshot(nil)
	if len(got) != 4 {
		t.Fatalf("snapshot len %d", len(got))
	}
	for i, s := range got {
		if want := uint64(i + 3); s.Ops != want {
			t.Fatalf("snapshot[%d].Ops = %d, want %d (oldest first)", i, s.Ops, want)
		}
	}
}

// TestGauge checks the trivial contract.
func TestGauge(t *testing.T) {
	var g Gauge
	g.Add(5)
	g.Add(-2)
	if g.Load() != 3 {
		t.Fatalf("gauge = %d, want 3", g.Load())
	}
}
