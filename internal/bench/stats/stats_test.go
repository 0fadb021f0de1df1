package stats

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("got %+v", s)
	}
	// Sample stddev of that classic series is sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); math.Abs(s.Stddev-want) > 1e-12 {
		t.Fatalf("stddev %v, want %v", s.Stddev, want)
	}
}

func TestSummarizeEdge(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("empty: got %+v", s)
	}
	s := Summarize([]float64{3.5})
	if s.N != 1 || s.Mean != 3.5 || s.Stddev != 0 || s.Min != 3.5 || s.Max != 3.5 {
		t.Fatalf("single: got %+v", s)
	}
}
