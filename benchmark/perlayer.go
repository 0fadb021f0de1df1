package main

import (
	"fmt"
	"io"
)

// perLayer lists every per-layer metric, layer = module name. Times come from
// the ladder (ladder.go), counts from the traced run of the workload itself,
// and the bench.* rows are the harness's own diagnostics. None is gated.
var perLayer = []metricDef{
	{name: "pmem.load_ns", unit: "ns", better: "lower"},
	{name: "pmem.store_ns", unit: "ns", better: "lower"},
	{name: "pmem.pwb_pfence_ns", unit: "ns", better: "lower"},
	{name: "pmem.loads_per_op", unit: "count", better: "lower"},
	{name: "pmem.stores_per_op", unit: "count", better: "lower"},
	{name: "pmem.rmws_per_op", unit: "count", better: "lower"},
	{name: "pmem.drained_per_op", unit: "count", better: "lower"},
	{name: "core.pload_ns", unit: "ns", better: "lower"},
	{name: "core.pstore_ns", unit: "ns", better: "lower"},
	{name: "core.pcas_ns", unit: "ns", better: "lower"},
	{name: "core.pwbs_per_pstore", unit: "count", better: "lower"},
	{name: "pheap.alloc_free_ns", unit: "ns", better: "lower"},
	{name: "pheap.watermark_growth_words", unit: "words", better: "lower"},
	{name: "hashtable.get_ns", unit: "ns", better: "lower"},
	{name: "hashtable.put_ns", unit: "ns", better: "lower"},
	{name: "hashtable.insdel_ns", unit: "ns", better: "lower"},
	{name: "store.hash_ns", unit: "ns", better: "lower"},
	{name: "store.get_ns", unit: "ns", better: "lower"},
	{name: "store.put_ns", unit: "ns", better: "lower"},
	{name: "store.insdel_ns", unit: "ns", better: "lower"},
	{name: "store.tax_get_ns", unit: "ns", better: "lower"},
	{name: "store.batched32_ns_per_op", unit: "ns", better: "lower"},
	{name: "store.combined32_ns_per_op", unit: "ns", better: "lower"},
	{name: "store.recover_keys_per_s", unit: "1/s", better: "higher"},
	{name: "store.recover_words_per_key", unit: "words", better: "lower"},
	{name: "server.codec_ns_per_op", unit: "ns", better: "lower"},
	{name: "server.exec1_ns", unit: "ns", better: "lower"},
	{name: "server.exec32_ns_per_op", unit: "ns", better: "lower"},
	{name: "server.ops_per_batch", unit: "count", better: "higher"},
	{name: "server.fences_per_batch", unit: "count", better: "lower"},
	{name: "client.pipe_d1_ns", unit: "ns", better: "lower"},
	{name: "client.unix_d1_ns", unit: "ns", better: "lower"},
	{name: "client.unix_d32_ns_per_op", unit: "ns", better: "lower"},
	{name: "client.wire_tax_d1_ns", unit: "ns", better: "lower"},
	{name: "client.syscalls_per_op", unit: "count", better: "lower"},
	{name: "client.bytes_per_op", unit: "count", better: "lower"},
	{name: "metrics.tax_ns_per_op", unit: "ns", better: "lower"},
	{name: "workload.gen_ns_per_op", unit: "ns", better: "lower"},
	{name: "bench.ops_per_s_mean", unit: "ops/s", better: "higher"},
	{name: "bench.seg_cv", unit: "ratio", better: "lower"},
	{name: "bench.lat_p50_ns", unit: "ns", better: "lower"},
	{name: "bench.cpu_ns_per_op", unit: "ns", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "bench.ladder_residual_pct", unit: "%", better: "lower"},
}

// ratio is a/b, or 0 when the layer did nothing (no batches on emb_*).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues assembles the per-layer metrics of one workload from its traced
// run, its untraced twin (for the tracing overhead) and the ladder.
func layerValues(traced, bare *runStats, tr *tracer, ns map[string]float64) ([]value, []ladderRow) {
	ops := float64(traced.ops)
	_, _, whole := traced.opsPerSecond()
	m := map[string]float64{
		"pmem.loads_per_op":            float64(traced.mem.Loads) / ops,
		"pmem.stores_per_op":           float64(traced.mem.Stores) / ops,
		"pmem.rmws_per_op":             float64(traced.mem.RMWs) / ops,
		"pmem.drained_per_op":          float64(traced.mem.Drained) / ops,
		"pheap.watermark_growth_words": float64(traced.watermark1 - traced.watermark0),
		"store.recover_keys_per_s":     float64(traced.rec.keys) / traced.recoverS(),
		"store.recover_words_per_key":  float64(traced.rec.words) / float64(traced.rec.keys),
		"server.ops_per_batch":         ratio(float64(traced.srvOps), float64(traced.batches)),
		// From pmem's count, not server.Stats: the batcher keeps its own
		// running copy of the thread's counters, which ResetStats unseats.
		"server.fences_per_batch":  ratio(float64(traced.mem.PFences), float64(traced.batches)),
		"client.syscalls_per_op":   float64(tr.transport.calls()) / ops,
		"client.bytes_per_op":      float64(tr.transport.bytes.Load()) / ops,
		"bench.ops_per_s_mean":     whole,
		"bench.seg_cv":             cv(traced.segNs),
		"bench.lat_p50_ns":         traced.perOp(quietest(traced.segP50)),
		"bench.cpu_ns_per_op":      traced.cpuNs / ops,
		"bench.trace_overhead_pct": 100 * (bare.throughput() - traced.throughput()) / bare.throughput(),
	}
	for k, v := range ns {
		m[k] = v
	}
	m["store.tax_get_ns"] = m["store.get_ns"] - m["store.hash_ns"] - m["hashtable.get_ns"]
	m["client.wire_tax_d1_ns"] = m["client.unix_d1_ns"] - m["server.exec1_ns"] - m["server.codec_ns_per_op"]

	rows := ladderTable(traced, m)
	top := rows[len(rows)-1].cum
	measured := 1e9 / bare.throughput()
	m["bench.ladder_residual_pct"] = 100 * (measured - top) / measured

	out := make([]value, len(perLayer))
	for i := range perLayer {
		v, ok := m[perLayer[i].name]
		if !ok {
			panic("per-layer metric not measured: " + perLayer[i].name)
		}
		out[i] = value{&perLayer[i], v}
	}
	return out, rows
}

// ladderRow is one rung of a workload's ladder: the time of one workload
// operation's worth of work done at that layer and everything below it.
type ladderRow struct {
	layer string
	what  string
	cum   float64
}

// ladderTable builds the workload's ladder, bottom rung first, from the rung
// times and the workload's own instruction counts per op. The lower rungs are
// estimates (instruction counts x single-instruction times); the top rung is
// the workload's own call path measured in isolation.
func ladderTable(rs *runStats, m map[string]float64) []ladderRow {
	ops := float64(rs.ops)
	loads, stores, rmws := float64(rs.mem.Loads)/ops, float64(rs.mem.Stores)/ops, float64(rs.mem.RMWs)/ops
	pwbs := float64(rs.mem.PWBs) / ops
	rawInstr := loads*m["pmem.load_ns"] + (stores+rmws)*m["pmem.store_ns"] + pwbs*m["pmem.pwb_pfence_ns"]
	pInstr := loads*m["core.pload_ns"] + stores*m["core.pstore_ns"] + rmws*m["core.pcas_ns"]
	switch rs.sp.name {
	case "emb_read":
		return []ladderRow{
			{"pmem", "loads/op x load", rawInstr},
			{"core", "loads/op x p-load", pInstr},
			{"hashtable", "Get", m["hashtable.get_ns"]},
			{"store", "Direct Get (hash, route, table)", m["store.get_ns"]},
		}
	case "emb_write":
		return []ladderRow{
			{"pmem", "instructions/op x raw instruction", rawInstr},
			{"core", "instructions/op x p-instruction", pInstr},
			{"pheap", "+ 1/4 alloc/free pair", pInstr + 0.25*m["pheap.alloc_free_ns"]},
			{"hashtable", "1/2 Put + 1/2 insert/delete", 0.5*m["hashtable.put_ns"] + 0.5*m["hashtable.insdel_ns"]},
			{"store", "Direct 1/2 Put + 1/2 insert/delete", 0.5*m["store.put_ns"] + 0.5*m["store.insdel_ns"]},
		}
	case "net_d1":
		return []ladderRow{
			{"store", "Direct 1/2 Put + 1/2 Get", 0.5*m["store.put_ns"] + 0.5*m["store.get_ns"]},
			{"server", "Batcher.Exec of 1", m["server.exec1_ns"]},
			{"server", "+ codec", m["server.exec1_ns"] + m["server.codec_ns_per_op"]},
			{"client", "ServeConn over net.Pipe", m["client.pipe_d1_ns"]},
			{"client", "unix socket, depth 1", m["client.unix_d1_ns"]},
		}
	default:
		return []ladderRow{
			{"store", "Batched Apply of 32 + Commit", m["store.batched32_ns_per_op"]},
			{"server", "Batcher.Exec of 32", m["server.exec32_ns_per_op"]},
			{"server", "+ codec", m["server.exec32_ns_per_op"] + m["server.codec_ns_per_op"]},
			{"client", "unix socket, depth 32", m["client.unix_d32_ns_per_op"]},
		}
	}
}

// selfTimes returns each rung's time minus the rung below it, clamped at zero
// (an over-estimated lower rung), and their sum.
func selfTimes(rows []ladderRow) ([]float64, float64) {
	self := make([]float64, len(rows))
	below, sum := 0.0, 0.0
	for i, r := range rows {
		self[i] = max(0, r.cum-below)
		below = max(below, r.cum)
		sum += self[i]
	}
	return self, sum
}

func printLadder(w io.Writer, name string, rows []ladderRow, measuredNs float64) {
	self, sum := selfTimes(rows)
	top := rows[len(rows)-1].cum
	fmt.Fprintf(w, "layer ladder for %s (ns per workload op)\n", name)
	for i, r := range rows {
		fmt.Fprintf(w, "  %-10s %-38s rung %10.1f  self %10.1f\n", r.layer, r.what, r.cum, self[i])
	}
	fmt.Fprintf(w, "  self times sum to %.1f, top rung %.1f (%+.1f%%); the workload itself ran at %.1f ns/op (%+.1f%% from the top rung)\n",
		sum, top, 100*(sum-top)/top, measuredNs, 100*(measuredNs-top)/measuredNs)
}
