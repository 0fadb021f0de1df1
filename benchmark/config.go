package main

import (
	"fmt"
	"runtime"

	"flit/internal/dstruct"
	"flit/internal/store"
	"flit/internal/workload"
)

// keyLen is the fixed width of a canonical workload key ("user" + 16 digits).
const keyLen = len(workload.KeyPrefix) + 16

// countFloor is the detection limit of the per-op count metrics: the gate is
// a ratio to the parent's median, so a count that is exactly zero (pwbs/op on
// a read-only workload, allocs/op in the embedded loops) is reported as the
// floor, which reads "none". A regression past the floor shows at full size.
const countFloor = 0.001

// spec fixes one workload: what it runs and how its run is cut.
type spec struct {
	name string
	why  string
	// net workloads go through server.Serve on a unix socket and one
	// client.Conn; the others call a Direct store session in-process.
	net bool
	// mix is the operation pattern and dist the workload.Generator key
	// distribution.
	mix  mixKind
	dist string
	// segOps is the fixed operation count of one timed segment: 250 latency
	// samples (256 on net_d32), so a segment's p95 has twelve samples beyond
	// it, and with sample as small as a clock reading allows, so a segment
	// lasts 0.4-0.9 ms on the 2.1 GHz reference box (2.9 ms on net_d32). The
	// box's interference comes in bursts of milliseconds on top of spells of
	// seconds, and only a short segment can fall between two bursts.
	// segsPerRound is the number of segments in one round (see scale), sized
	// so a round lasts about 1/roundsPerSecond there. The op count of a run
	// is a function of --seconds alone, never of the clock: that is what
	// makes the count metrics repeat exactly.
	segOps       int
	segsPerRound int
	// sample is the number of operations one latency sample covers: on a
	// net workload the pipeline window (requests sent before the first
	// response is read; 1 is a plain round trip), in the embedded loops a
	// burst of calls, where one call is too short to time on its own.
	sample int
}

var specs = []spec{
	{
		name: "emb_read", mix: mixRead, dist: workload.DistUniform, segOps: 5000, segsPerRound: 48, sample: 20,
		why: "100% Get on uniform keys through a Direct session: the store/hashtable/core/pmem read path alone, no flush, allocation or socket",
	},
	{
		name: "emb_write", mix: mixWrite, dist: workload.DistUniform, segOps: 2500, segsPerRound: 40, sample: 10,
		why: "50% in-place Put, 25% Put of a fresh key, 25% Delete of the oldest key: p-stores, pheap alloc/free, reclaim and node persist",
	},
	{
		name: "net_d1", net: true, mix: mixPutGet, dist: workload.DistZipfian, segOps: 250, segsPerRound: 36, sample: 1,
		why: "one connection, depth 1, alternating Put/Get on zipfian keys over a unix socket: syscalls, framing, wake-ups and one fence per op",
	},
	{
		name: "net_d32", net: true, mix: mixPutGet, dist: workload.DistZipfian, segOps: 32 * 256, segsPerRound: 10, sample: 32,
		why: "same connection with 32 requests in flight per window: group commit and codec throughput, socket cost amortised 32x",
	},
}

func specByName(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scale is everything about a run's size. fullScale is what BENCHMARK.json
// measures; tests shrink it.
//
// A run is a sequence of rounds. Every round runs segsPerRound timed segments
// of the workload, then trials complete set-ups and trials store.Recover
// calls, each timed. So each of the four timings samples the whole length of
// the run, not one stretch of it: the box's slow spells last seconds, and a
// measurement that fits inside one reads whatever that spell makes of it.
type scale struct {
	records      int // keys loaded before the timed region
	memSlack     int // simulated-memory words beyond 40 per record
	rounds       int
	segsPerRound int
	segOps       int // operations per segment
	trials       int // set-ups, and recoveries, per round
	warmup       int // untimed segments run first, so caches and lazy set-up are paid
	ladder       int // segments per ladder rung and pass in the traced run
	ladderPasses int
	// ladderDiv divides the rungs' per-segment operation counts.
	ladderDiv int
}

func (sc scale) segments() int { return sc.rounds * sc.segsPerRound }

// fullRecords keeps the loaded store (about 40 words a key with its buckets)
// inside a core's private cache. The reference box shares its last-level cache
// and memory bus with other tenants: a store of 2^18 keys ran anywhere between
// 1.0 and 2.1 M emb_write ops/s depending on the hour, which no estimator can
// see through. What is left to measure is the software on the path, which is
// what the wall-clock metrics are for; the modelled persistence cost is in the
// count metrics.
const fullRecords = 1 << 12

// roundsPerSecond turns --seconds into rounds: segsPerRound is sized so that a
// round, trials included, takes 1/roundsPerSecond seconds on the reference box.
const roundsPerSecond = 10

func fullScale(sp *spec, seconds int) scale {
	return scale{
		records:      fullRecords,
		memSlack:     1 << 18,
		rounds:       seconds * roundsPerSecond,
		segsPerRound: sp.segsPerRound,
		segOps:       sp.segOps,
		trials:       6,
		warmup:       sp.segsPerRound,
		ladder:       12,
		ladderPasses: 50,
		ladderDiv:    1,
	}
}

// quickScale is the 1/1000 size the tests run: every code path, no claim to
// a steady number.
func quickScale(sp *spec) scale {
	return scale{
		records:      1024,
		memSlack:     1 << 18,
		rounds:       2,
		segsPerRound: 3,
		segOps:       max(sp.segOps/6, 24*sp.sample),
		trials:       1,
		warmup:       1,
		ladder:       2,
		ladderPasses: 2,
		ladderDiv:    10,
	}
}

// storeOptions is the fixed store configuration, recorded in the output.
// Virtual clock: wall time is software only, the modelled persistence cost is
// the separate, exact sim_cost_per_op. MemWords is explicit because
// store.Recover rebuilds nodes past the watermark and the derived size is too
// small for that.
func storeOptions(sc scale, policy string) store.Options {
	return store.Options{
		Shards:       8,
		Policy:       policy,
		Mode:         dstruct.Automatic,
		VirtualClock: true,
		ExpectedKeys: 2 * sc.records,
		MemWords:     40*sc.records + sc.memSlack,
	}
}

// procs is the fixed GOMAXPROCS: every workload has at most two busy
// goroutines.
func procs() int { return min(runtime.NumCPU(), 2) }
