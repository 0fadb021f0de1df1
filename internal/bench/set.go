package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/dstruct/bst"
	"flit/internal/dstruct/hashtable"
	"flit/internal/dstruct/list"
	"flit/internal/dstruct/skiplist"
	"flit/internal/pheap"
	"flit/internal/pmem"
)

// SetCell is the one description of a structure-level point, shared by
// the §6 figures and the matrix presets: a data structure over a policy
// and durability mode (what is built), driven by the paper's timed mix
// (how it is loaded). Cells that agree on every build field share one
// built-and-prefilled instance within a run.
type SetCell struct {
	// Build fields.
	DS         string // list | hashtable | skiplist | bst
	Policy     string // a core.Policy* identifier
	HTBytes    int    // flit-ht / flit-packed table size; 0 is the paper's 1 MB
	Mode       dstruct.Mode
	KeyRange   uint64
	Invalidate bool // model the invalidating clwb of Cascade Lake (ablation A)

	// Workload fields: updates split 50/50 between inserts and deletes,
	// the rest are lookups, as in the paper's setup.
	UpdatePct int // 0, 5, 50 in the paper
	Threads   int // 0: Matrix.Threads
	// ZipfS, when > 1, draws keys from Zipf(s) instead of uniformly: hot
	// keys create the contended pattern §7 names as where FliT's benefits
	// concentrate.
	ZipfS float64
}

// defaultHTBytes mirrors core.NewPolicyByName's table size for HTBytes 0.
const defaultHTBytes = 1 << 20

// htBytes is the effective counter-table size: the default made explicit,
// and zero for policies that have no table — so two spellings of one
// configuration get one ID, one label and one instance.
func (c SetCell) htBytes() int {
	if c.Policy != core.PolicyHT && c.Policy != core.PolicyPacked {
		return 0
	}
	if c.HTBytes == 0 {
		return defaultHTBytes
	}
	return c.HTBytes
}

// ID is the cell's stable identity — a lossless function of the cell
// configuration (sizing included, so differently-sized matrices can
// never share a cell). Dimensions at their default (1 MB table,
// non-invalidating clwb, matrix-wide threads, uniform keys) add no
// component, so a figure and a matrix preset naming the same point emit
// the same ID.
func (c SetCell) ID() string {
	parts := []string{"set", c.DS, c.Mode.String(), c.Policy}
	if ht := c.htBytes(); ht != 0 && ht != defaultHTBytes {
		parts = append(parts, fmt.Sprintf("ht%d", ht))
	}
	parts = append(parts, fmt.Sprintf("k%d", c.KeyRange), fmt.Sprintf("u%d", c.UpdatePct))
	if c.Invalidate {
		parts = append(parts, "inval")
	}
	if c.Threads > 0 {
		parts = append(parts, fmt.Sprintf("t%d", c.Threads))
	}
	if c.ZipfS > 1 {
		parts = append(parts, fmt.Sprintf("z%g", c.ZipfS))
	}
	return SlugID(parts...)
}

// PolicyLabel names the policy with its parameters, as in the paper's
// legends. The spellings are core's Policy.Name values, derived here
// from name and size so that labelling a 64 MB table does not allocate
// one (TestPolicyLabels holds the two in step).
func (c SetCell) PolicyLabel() string {
	switch c.Policy {
	case core.PolicyHT:
		return "flit-HT(" + fmtBytes(c.htBytes()) + ")"
	case core.PolicyPacked:
		return "flit-packed(" + fmtBytes(c.htBytes()) + ")"
	}
	return c.Policy
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// build is the cell with its workload fields cleared and its table size
// normalised: the comparable key that decides instance sharing.
func (c SetCell) build() SetCell {
	c.HTBytes = c.htBytes()
	c.UpdatePct, c.Threads, c.ZipfS = 0, 0, 0
	return c
}

// planSet groups cells that differ only in workload fields, keeping
// first-appearance order of groups and of cells within a group. One
// instance is built per group: an update-ratio, thread or skew sweep
// pays for one prefill (Figure 8's large sizes prefill 500 K keys), and
// each ratio starts from the steady-state fill the previous one left.
func planSet(cells []SetCell) [][]SetCell {
	group := make(map[SetCell]int)
	var plan [][]SetCell
	for _, c := range cells {
		key := c.build()
		i, ok := group[key]
		if !ok {
			i = len(plan)
			group[key] = i
			plan = append(plan, nil)
		}
		plan[i] = append(plan[i], c)
	}
	return plan
}

// Instance is a built and prefilled benchmark subject.
type Instance struct {
	Set      dstruct.Set
	Snapshot func() map[uint64]uint64
	Mem      *pmem.Memory
	keyRange uint64
}

// perKeyWords estimates the allocation footprint per key (in fields,
// before stride); zero for an unknown structure.
func perKeyWords(ds string) int {
	switch ds {
	case "list", "hashtable":
		return list.NumFields
	case "skiplist":
		return 7 // key,val,level + ~2 tower levels on average, headroom
	case "bst":
		return 2 * bst.NumFields // leaf + internal
	}
	return 0
}

// NewInstance builds c's structure over fresh simulated memory and
// prefills it with every other key — 50% fill, the steady state of a
// 50/50 insert/delete mix. runFor is how long the instance will be
// driven in total; it sizes the leak budget of the skiplist, which does
// not recycle nodes.
func NewInstance(c SetCell, virtualClock bool, runFor time.Duration) (*Instance, error) {
	perKey := perKeyWords(c.DS)
	if perKey == 0 {
		return nil, fmt.Errorf("bench: unknown data structure %q", c.DS)
	}
	// The hashtable gets KeyRange/2 buckets: short chains at the
	// steady-state fill, like the paper's setup.
	buckets := max(int(c.KeyRange/2), 4)
	stride := 1
	if c.Policy == core.PolicyAdjacent {
		stride = core.AdjacentStride
	}
	// Live set (~KeyRange/2 at steady state), allocation churn headroom
	// and the duration-scaled skiplist leak.
	leak := uint64(400_000)
	if c.DS == "skiplist" {
		leak += uint64(2_000_000 * max(runFor.Seconds(), 0.5))
	}
	words := int((c.KeyRange*3/4+leak)*uint64(perKey*stride)) + buckets*stride + 1<<18

	pol, err := core.NewPolicyByName(c.Policy, words, c.HTBytes)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	mcfg := pmem.DefaultConfig(words)
	mcfg.InvalidateOnPWB = c.Invalidate
	mcfg.VirtualClock = virtualClock
	mem := pmem.New(mcfg)
	cfg := dstruct.Config{
		Heap: pheap.New(mem), Policy: pol, Mode: c.Mode, RootSlot: 0,
		Stride: dstruct.StrideFor(pol),
	}
	inst := &Instance{Mem: mem, keyRange: c.KeyRange}
	switch c.DS {
	case "list":
		l := list.New(cfg)
		inst.Set, inst.Snapshot = l, l.Snapshot
	case "hashtable":
		h := hashtable.New(cfg, buckets)
		inst.Set, inst.Snapshot = h, h.Snapshot
	case "skiplist":
		sl := skiplist.New(cfg)
		inst.Set, inst.Snapshot = sl, sl.Snapshot
	case "bst":
		b := bst.New(cfg)
		inst.Set, inst.Snapshot = b, b.Snapshot
	}
	inst.prefill()
	return inst, nil
}

// prefill inserts every other key with latency modeling suspended —
// setup is not part of the measured run. Keys go in shuffled: sorted
// insertion would degenerate the external BST into a linear chain.
func (inst *Instance) prefill() {
	saved := inst.Mem.Config()
	inst.Mem.SetCosts(0, 0, 0, 0)
	th := inst.Set.NewThread()
	defer th.Close()
	keys := make([]uint64, 0, inst.keyRange/2)
	for k := uint64(0); k < inst.keyRange; k += 2 {
		keys = append(keys, k)
	}
	rng := rand.New(rand.NewSource(0xF117))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		th.Insert(k, k)
	}
	inst.Mem.SetCosts(saved.PWBCost, saved.PFenceCost, saved.PFenceEntryCost, saved.MissCost)
	inst.Mem.ResetStats()
}

// drive issues n operations of the paper's mix through th: updatePct
// percent updates, split evenly between Insert and Delete, the rest
// Contains. One draw from [0,200) decides both: below 2×updatePct it is
// an update, and its parity is the insert/delete coin — exact for odd
// percentages, where a parity taken from a draw in [0,100) is not (5%
// came out 3 inserts to 2 deletes).
func drive(th dstruct.SetThread, rng *rand.Rand, zipf *rand.Zipf, keyRange uint64, updatePct, n int) {
	for i := 0; i < n; i++ {
		var k uint64
		if zipf != nil {
			k = zipf.Uint64()
		} else {
			k = uint64(rng.Int63()) % keyRange
		}
		switch r := rng.Intn(200); {
		case r >= 2*updatePct:
			th.Contains(k)
		case r%2 == 0:
			th.Insert(k, k)
		default:
			th.Delete(k)
		}
	}
}

// run drives the instance with c's workload on threads goroutines for d
// and returns the window's operation and flush counts and rates;
// statistics are reset at the start of the window.
func (inst *Instance) run(c SetCell, threads int, d time.Duration) window {
	inst.Mem.ResetStats()
	counts := make([]uint64, threads)
	var wg sync.WaitGroup
	start := time.Now()
	// Workers watch the deadline themselves (once per small batch) rather
	// than polling a stop flag set by a sleeping coordinator: with every P
	// saturated by CPU-bound workers, the coordinator's timer wake-up can
	// lag the nominal window by many milliseconds, and that overshoot —
	// not the workload — used to dominate short cells' wall time.
	deadline := start.Add(d)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			th := inst.Set.NewThread()
			defer th.Close()
			rng := rand.New(rand.NewSource(int64(0xC0FFEE + t*7919)))
			var zipf *rand.Zipf
			if c.ZipfS > 1 {
				zipf = rand.NewZipf(rng, c.ZipfS, 1, inst.keyRange-1)
			}
			// A small batch per deadline check keeps the clock off the
			// per-op hot path.
			const batch = 64
			var ops uint64
			for !time.Now().After(deadline) {
				drive(th, rng, zipf, inst.keyRange, c.UpdatePct, batch)
				ops += batch
			}
			counts[t] = ops
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var ops uint64
	for _, n := range counts {
		ops += n
	}
	mstats := inst.Mem.TotalStats()
	return window{
		ops: ops, pwbs: mstats.PWBs, pfences: mstats.PFences, elided: mstats.ElidedFences,
		opsPerSec: float64(ops) / elapsed.Seconds(), pwbsPerOp: float64(mstats.PWBs) / float64(ops),
	}
}
