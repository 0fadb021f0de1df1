// Package stats is the leaf statistics kernel of the bench subsystem:
// summary statistics over repeated benchmark samples. It is a separate
// package (rather than part of internal/bench) so that benchmark/, a
// module of its own, can fold its segments through the same code without
// importing the matrix runner and everything it drives.
package stats

import "math"

// Summary condenses repeated samples of one quantity. Mean is the value
// every human-readable rendering shows; Stddev/Min/Max qualify how
// stable it was across repeats. A Summary with N == 1 is a single
// observation (Stddev 0, Min == Mean == Max).
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev,omitempty"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Summarize folds samples into a Summary (sample standard deviation,
// n-1 denominator). An empty slice yields the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var sq float64
		for _, x := range xs {
			d := x - s.Mean
			sq += d * d
		}
		s.Stddev = math.Sqrt(sq / float64(len(xs)-1))
	}
	return s
}
