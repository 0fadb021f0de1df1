package main

import (
	"fmt"
	"io"
)

// metricDef is one line of BENCHMARK.json; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	how    string  // how it is measured; printed with the value
	exact  bool    // a count on a fixed instruction stream: repeats exactly, compared as a count
}

var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "ops/s", better: "higher", bound: 0.25,
		how: "segment ops / mean time of the 3 fastest of the run's segments"},
	{name: "lat_p95_ns", unit: "ns", better: "lower", bound: 0.25,
		how: "per-segment p95 of the sample time (a round trip, a 32-op window, or a burst of embedded calls divided by its length), then the mean of the 3 lowest segments"},
	{name: "sim_cost_per_op", unit: "cost/op", better: "lower", bound: 0.005, exact: true,
		how: "virtual-clock units the one pmem thread accrued in the timed region / ops"},
	{name: "pwbs_per_op", unit: "count", better: "lower", bound: 0.005, exact: true,
		how: "pmem.Stats delta over the timed region / ops (floor 0.001)"},
	{name: "pfences_per_op", unit: "count", better: "lower", bound: 0.005, exact: true,
		how: "pmem.Stats delta over the timed region / ops (floor 0.001)"},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.01,
		how: "runtime.MemStats.Mallocs delta over the timed region / ops, client and server together on net_* (floor 0.001)"},
	{name: "pmem_words_per_key", unit: "words", better: "lower", bound: 0.005, exact: true,
		how: "heap watermark / live keys at the end of the timed region"},
	{name: "recover_s", unit: "s", better: "lower", bound: 0.25,
		how: "mean of the 3 fastest of the store.Recover calls, 6 every 0.1 s of the run, on fresh copies of the crash image taken after warm-up, runtime.GC() before each"},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		how: "mean of the 3 fastest of the complete set-ups (store.New + load + listen/dial), 6 every 0.1 s of the run, runtime.GC() before each"},
}

type value struct {
	def *metricDef
	v   float64
}

func floorCount(x float64) float64 { return max(x, countFloor) }

// opsPerSecond returns the workload's throughput under the gated estimator
// (the quietest segments), by the median segment, and untrimmed.
func (rs *runStats) opsPerSecond() (fast, med, whole float64) {
	n := float64(rs.sc.segOps)
	return n * 1e9 / quietest(rs.segNs), n * 1e9 / median(rs.segNs), n * 1e9 / mean(rs.segNs)
}

func (rs *runStats) throughput() float64 {
	fast, _, _ := rs.opsPerSecond()
	return fast
}

// perOp scales a per-sample latency to one operation of an embedded burst;
// a net sample (round trip or window) is reported whole.
func (rs *runStats) perOp(sampleNs float64) float64 {
	if rs.sp.net {
		return sampleNs
	}
	return sampleNs / float64(rs.sp.sample)
}

func (rs *runStats) tailNs() float64   { return rs.perOp(quietest(rs.segTail)) }
func (rs *runStats) recoverS() float64 { return quietest(rs.recover) }
func (rs *runStats) setupS() float64   { return quietest(rs.setup) }

func (rs *runStats) endToEnd() []value {
	ops := float64(rs.ops)
	vals := []float64{
		rs.throughput(),
		rs.tailNs(),
		float64(rs.vtime) / ops,
		floorCount(float64(rs.mem.PWBs) / ops),
		floorCount(float64(rs.mem.PFences) / ops),
		floorCount(float64(rs.mallocs) / ops),
		float64(rs.watermark1) / float64(rs.liveKeys),
		rs.recoverS(),
		rs.setupS(),
	}
	out := make([]value, len(endToEnd))
	for i := range endToEnd {
		out[i] = value{&endToEnd[i], vals[i]}
	}
	return out
}

func printValues(w io.Writer, title string, vals []value) {
	fmt.Fprintf(w, "%s\n", title)
	for _, v := range vals {
		bound := ""
		if v.def.bound > 0 {
			bound = fmt.Sprintf("bound %.1f%%", 100*v.def.bound)
		}
		fmt.Fprintf(w, "  %-30s %18.6f %-8s %-7s %-12s %s\n", v.def.name, v.v, v.def.unit, v.def.better, bound, v.def.how)
	}
}
