// Package dlcheck is the durable-linearizability checking subsystem: it
// verifies the repository's core claim — that an operation which responded
// before a crash survives it — *systematically* rather than
// probabilistically.
//
// The randomized crash harness (internal/crashtest) interrupts threads at
// seeded instruction counts and materializes one crash image per round;
// it can exercise a schedule but never exhaust its crash points. dlcheck
// instead records one complete concurrent execution together with its
// persist trace (pmem.StartTrace: every cache line a PFence drains, in
// global shadow-write order, stamped against the same logical clock the
// history recorders use) and then re-reads that single execution as a
// family of crashed executions — one per PWB/PFence boundary:
//
//   - the crash image at boundary k is the base image plus persist
//     records 0..k-1 (pmem.ApplyRecord), exactly the DropUnfenced state
//     a power failure between records k-1 and k would leave;
//   - the history at boundary k is the recorded history truncated at the
//     boundary's stamp (hist.Truncate): operations that responded earlier
//     are completed and must be reflected in the recovered state,
//     operations still running become pending (free to take effect or
//     vanish), operations invoked later never existed;
//   - the recovered structure's contents at boundary k must then be
//     explainable by a linearization of that truncated history — the
//     durable rule — decided exactly by the hist checkers (per-key
//     Wing–Gong search for sets, whole-history FIFO search for queues).
//
// Scope: the hist checkers decide key membership (and, for queues,
// FIFO order) — values are not modeled, so a crash that loses an
// in-place value overwrite while the key survives is invisible here;
// the store's Upsert value durability is covered by its own test
// (internal/store TestUpsertValueDurability).
//
// Soundness leans on the trace's stamping discipline (see
// pmem.PersistRecord): a record's stamp is drawn before its shadow write,
// so an operation whose response stamp precedes a record's stamp cannot
// have depended on that record's persist — every prefix is a crash state
// that genuinely could have occurred.
//
// A second, cheaper oracle rides along: for FliT policies with auditable
// counter schemes (core.TagAuditor), the engine asserts every flit-tag
// returned to zero at quiescence — a leaked tag means the counter
// discipline itself is broken.
//
// Enumeration is bounded by Options.Budget: when an execution has more
// persist boundaries than the budget, an evenly-strided deterministic
// subset (always including the first and last boundary) is checked.
// Batteries run on the virtual clock (pmem.Config.VirtualClock), so full
// enumeration stays fast enough for CI.
//
// The engine is deliberately structure-agnostic (it imports no concrete
// data structure or service): internal/dstruct/dstest adapts the set
// batteries, internal/crashtest adapts the queue and the sharded store.
package dlcheck

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/hist"
	"flit/internal/pheap"
	"flit/internal/pmem"
)

// Options parameterizes one recorded execution and its enumeration.
type Options struct {
	// Workers is the number of recording worker goroutines.
	Workers int
	// OpsPerWorker is each worker's operation count (all complete; crash
	// points are enumerated afterwards, not injected).
	OpsPerWorker int
	// KeyRange draws keys from [0, KeyRange); small ranges maximize the
	// cross-thread overlap the checker exists to scrutinize. Sized so
	// per-key histories stay inside the exact checker's 64-op window.
	KeyRange int
	// Prefill inserts keys [0, Prefill) before recording starts; they form
	// the initial state and must survive every crash point.
	Prefill int
	// Budget bounds the number of crash points checked (<= 0: all).
	Budget int
	// Seed drives the workers' operation mix.
	Seed int64
}

// DefaultOptions returns a configuration tuned for dense cross-thread
// overlap with per-key histories comfortably inside the exact window.
func DefaultOptions(seed int64) Options {
	return Options{Workers: 3, OpsPerWorker: 18, KeyRange: 8, Prefill: 4, Budget: 256, Seed: seed}
}

// Words sizes simulated memories for enumeration runs: workloads are tens
// of operations, and every crash boundary copies the image, so small
// memories keep every-boundary enumeration cheap.
const Words = 1 << 16

// NewConfig builds the standard enumeration config — a Words-sized
// virtual-clock heap (enumeration never reads a latency number) with the
// policy's stride — the single source of truth for the CLI battery, the
// dstest batteries, and dlcheck's own tests.
func NewConfig(pol core.Policy, mode dstruct.Mode) dstruct.Config {
	mc := pmem.DefaultConfig(Words)
	mc.VirtualClock = true
	return dstruct.Config{
		Heap: pheap.New(pmem.New(mc)), Policy: pol, Mode: mode,
		RootSlot: 0, Stride: dstruct.StrideFor(pol),
	}
}

// Normalized returns the options with zero fields replaced by defaults —
// what Run itself applies; adapters that need to see the effective
// values (e.g. the store's key-namespace translation) call it first.
func (o Options) Normalized() Options {
	d := DefaultOptions(o.Seed)
	if o.Workers <= 0 {
		o.Workers = d.Workers
	}
	if o.OpsPerWorker <= 0 {
		o.OpsPerWorker = d.OpsPerWorker
	}
	if o.KeyRange <= 0 {
		o.KeyRange = d.KeyRange
	}
	if o.Prefill < 0 {
		o.Prefill = 0
	}
	return o
}

// BatchOp is one operation of a recorded execution (hist.Insert maps to
// the store's Put: true iff newly inserted).
type BatchOp struct {
	Kind hist.Kind
	Key  uint64
	Val  uint64
}

// BatchExecutor is a per-goroutine operation handle: it executes one
// vector of operations and fills results[i] with ops[i]'s answer. A
// group-commit target (the server's batcher, the store's combiner) runs
// the vector under a single commit fence; no result may be externalized
// before that fence — the property under test.
type BatchExecutor interface {
	ExecBatch(ops []BatchOp, results []bool)
}

// SetExecutor adapts a per-operation set handle to BatchExecutor: each
// op of the vector runs to completion in order.
type SetExecutor struct{ Th dstruct.SetThread }

func (e SetExecutor) ExecBatch(ops []BatchOp, results []bool) {
	for i, op := range ops {
		switch op.Kind {
		case hist.Insert:
			results[i] = e.Th.Insert(op.Key, op.Val)
		case hist.Delete:
			results[i] = e.Th.Delete(op.Key)
		default:
			results[i] = e.Th.Contains(op.Key)
		}
	}
}

// Harness abstracts the set-semantics structure or service under check.
// Sessions share the uint64 key space the recorders log; adapters that
// speak another key language (the store's string keys) translate in both
// directions. The target must be freshly constructed: the engine's
// prefill is the entire initial state, so any other surviving key reads
// as a phantom violation.
type Harness struct {
	// Name identifies the target in reports.
	Name string
	// Mem is the simulated memory the execution runs in (and is traced).
	Mem *pmem.Memory
	// Policy feeds the flit-tag quiescence oracle; nil skips it.
	Policy core.Policy
	// NewSession returns a fresh per-goroutine operation handle.
	NewSession func() BatchExecutor
	// Recover materializes the target from a crash image and returns its
	// recovered key set. An error is reported as a violation (recovery
	// must succeed from every reachable crash state).
	Recover func(img []uint64) (map[uint64]bool, error)
	// MaxBatch bounds the (seeded, varying) operations per ExecBatch
	// call. At <= 1 every operation is invoked, executed and answered on
	// its own. Above 1 the history model is the pipeline's: a vector's
	// operations are all invoked (Begin) before it executes and respond
	// (Finish) only after it commits, so they overlap — any serialization
	// the executor picks is admissible — while the durable rule bites at
	// full strength: once Finish is stamped, every later crash boundary
	// must reflect the operation.
	MaxBatch int
}

// Instance couples a live structure with a quiescent snapshot function
// (the same shape internal/crashtest uses, so targets convert directly).
type Instance struct {
	Set      dstruct.Set
	Snapshot func() map[uint64]uint64
}

// Target describes a cfg-constructed data structure under check.
type Target struct {
	Name    string
	New     func(cfg dstruct.Config) Instance
	Recover func(cfg dstruct.Config) Instance
}

// Report summarizes one enumeration run.
type Report struct {
	// Name is the target's name.
	Name string
	// Records is the number of persist-line events in the trace; the
	// execution has Records+1 crash boundaries.
	Records int
	// Fences is the number of distinct persist points — (thread, epoch)
	// fence drains — in the trace.
	Fences int
	// Points is the number of crash boundaries actually checked.
	Points int
	// Ops is the number of recorded operations.
	Ops int
	// LiveTags is the flit-counter sum at quiescence (-1: policy not
	// auditable). Non-zero is reported as a violation.
	LiveTags int
	// Violation is nil when every checked boundary is durably
	// linearizable.
	Violation *Violation
}

// Violation is a minimal repro trace for one failed crash boundary:
// everything needed to debug the failure from a CI artifact alone — the
// boundary, the un-persisted record it sits before, the truncated
// schedule, and the recovered-state diff.
type Violation struct {
	// Target names the structure or service checked.
	Target string
	// Point is the boundary index: persist records 0..Point-1 were
	// applied to the base image.
	Point int
	// Stamp is the crash instant on the shared logical clock.
	Stamp int64
	// Boundary is the first record NOT persisted (nil when the violation
	// is at the end-of-run boundary or in the quiescence oracle).
	Boundary *pmem.PersistRecord
	// Reason is the checker's verdict (e.g. the per-key history no
	// linearization explains).
	Reason string
	// Schedule renders the truncated history, invocation-ordered.
	Schedule string
	// Diff describes the recovered state against the recorded
	// expectation for the violating region.
	Diff string
}

// Error formats the full repro trace.
func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dlcheck %s: durable-linearizability violation at crash point %d (stamp %d)\n",
		v.Target, v.Point, v.Stamp)
	if v.Boundary != nil {
		fmt.Fprintf(&b, "boundary: before persist of line %d by thread %d (fence epoch %d, stamp %d)\n",
			v.Boundary.Line, v.Boundary.Thread, v.Boundary.Epoch, v.Boundary.Stamp)
	} else {
		b.WriteString("boundary: end of recorded execution (all persists applied)\n")
	}
	fmt.Fprintf(&b, "reason: %s\n", v.Reason)
	if v.Diff != "" {
		fmt.Fprintf(&b, "state diff: %s\n", v.Diff)
	}
	if v.Schedule != "" {
		fmt.Fprintf(&b, "schedule (truncated at crash):\n%s", v.Schedule)
	}
	return b.String()
}

// Run records one concurrent execution against the harness and checks
// every (budgeted) crash boundary. The returned report's Violation is nil
// iff all checked boundaries are durably linearizable.
func Run(h Harness, opts Options) *Report {
	opts = opts.Normalized()
	maxBatch := h.MaxBatch
	if maxBatch < 1 {
		maxBatch = 1
	}

	// Prefill outside the recorded history, as one vector: it completes
	// (and fences) before the base image below is taken, so the image
	// carries the initial state.
	initial := make(map[uint64]bool, opts.Prefill)
	if opts.Prefill > 0 {
		ops := make([]BatchOp, opts.Prefill)
		for k := range ops {
			ops[k] = BatchOp{Kind: hist.Insert, Key: uint64(k), Val: uint64(k) + 1000}
			initial[uint64(k)] = true
		}
		h.NewSession().ExecBatch(ops, make([]bool, len(ops)))
	}
	base := h.Mem.CrashImage(pmem.DropUnfenced, 0)

	clock := &hist.Clock{}
	trace := h.Mem.StartTrace(clock.Now)
	recs := make([]*hist.Recorder, opts.Workers)
	sessions := make([]BatchExecutor, opts.Workers)
	for w := range recs {
		recs[w] = hist.NewRecorder(clock)
		sessions[w] = h.NewSession()
	}
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ex, rec := sessions[w], recs[w]
			rng := rand.New(rand.NewSource(opts.Seed + int64(w)*7919))
			ops := make([]BatchOp, 0, maxBatch)
			results := make([]bool, maxBatch)
			toks := make([]int, 0, maxBatch)
			for done := 0; done < opts.OpsPerWorker; {
				depth := 1
				if maxBatch > 1 {
					depth += rng.Intn(maxBatch)
				}
				if depth > opts.OpsPerWorker-done {
					depth = opts.OpsPerWorker - done
				}
				ops, toks = ops[:0], toks[:0]
				for i := 0; i < depth; i++ {
					k := uint64(rng.Intn(opts.KeyRange))
					kind := hist.Kind(rng.Intn(3))
					ops = append(ops, BatchOp{Kind: kind, Key: k, Val: uint64(w*1000 + done + i)})
					// Invocation before execution: the target has
					// accepted the request.
					toks = append(toks, rec.Begin(kind, k))
				}
				ex.ExecBatch(ops, results[:depth])
				// Responses exist only now — after the vector's commit.
				for i := 0; i < depth; i++ {
					rec.Finish(toks[i], results[i])
				}
				done += depth
			}
		}(w)
	}
	wg.Wait()
	h.Mem.StopTrace()

	records := trace.Records()
	rep := newReport(h.Name, h.Policy, records, opts)
	if rep.Violation != nil {
		return rep
	}

	perKey := hist.Gather(recs)
	guardPerKeyWindow(perKey)
	enumerate(rep, base, records, opts.Budget, setBoundaryCheck(h.Recover, initial, perKey))
	return rep
}

// setBoundaryCheck builds the per-boundary verdict function for
// set-semantics targets: truncate the history at the crash stamp,
// recover the image, decide with the exact checkers.
func setBoundaryCheck(recover func(img []uint64) (map[uint64]bool, error),
	initial map[uint64]bool, perKey map[uint64][]hist.Op) func(img []uint64, stamp int64) *Violation {
	return func(img []uint64, stamp int64) *Violation {
		trunc := make(map[uint64][]hist.Op, len(perKey))
		for kk, ops := range perKey {
			trunc[kk] = hist.Truncate(ops, stamp)
		}
		final, err := recover(img)
		if err != nil {
			// A failed recovery is debuggable from the artifact alone too:
			// carry the schedule that produced the unrecoverable image.
			return &Violation{
				Reason:   fmt.Sprintf("recovery failed: %v", err),
				Schedule: renderSetSchedule(trunc),
			}
		}
		if hv := hist.CheckOps(trunc, initial, final); hv != nil {
			return &Violation{
				Reason:   hv.Error(),
				Schedule: renderSetSchedule(trunc),
				Diff:     setDiff(initial, final, trunc),
			}
		}
		return nil
	}
}

// newReport builds a report skeleton and runs the flit-counter
// quiescence oracle; a leaked tag lands in rep.Violation.
func newReport(name string, pol core.Policy, records []pmem.PersistRecord, opts Options) *Report {
	rep := &Report{
		Name:     name,
		Records:  len(records),
		Fences:   countFences(records),
		Ops:      opts.Workers * opts.OpsPerWorker,
		LiveTags: -1,
	}
	rep.Violation = tagOracle(name, pol, rep, len(records))
	return rep
}

// enumerate walks the budgeted crash boundaries in order, maintaining
// the incremental image, and invokes check at each; check's violation
// (if any) is completed with the boundary coordinates and ends the walk.
func enumerate(rep *Report, base []uint64, records []pmem.PersistRecord, budget int,
	check func(img []uint64, stamp int64) *Violation) {
	img := append([]uint64(nil), base...)
	applied := 0
	for _, k := range crashPoints(len(records), budget) {
		for applied < k {
			pmem.ApplyRecord(img, records[applied])
			applied++
		}
		stamp, boundary := boundaryStamp(records, k)
		rep.Points++
		if v := check(img, stamp); v != nil {
			v.Target, v.Point, v.Stamp, v.Boundary = rep.Name, k, stamp, boundary
			rep.Violation = v
			return
		}
	}
}

// RunSet is Run over a cfg-constructed data structure target: recovery
// rebuilds the structure on a fresh heap over each crash image, carrying
// the live heap's watermark (read at recovery time, i.e. after the
// recorded execution) so post-crash allocation can never clobber
// surviving objects.
func RunSet(cfg dstruct.Config, tgt Target, opts Options) *Report {
	inst := tgt.New(cfg)
	var opened []dstruct.SetThread // Run opens sessions one at a time
	defer func() {
		for _, th := range opened {
			th.Close()
		}
	}()
	return Run(Harness{
		Name:   tgt.Name,
		Mem:    cfg.Heap.Mem(),
		Policy: cfg.Policy,
		NewSession: func() BatchExecutor {
			th := inst.Set.NewThread()
			opened = append(opened, th)
			return SetExecutor{th}
		},
		Recover: func(img []uint64) (map[uint64]bool, error) {
			cfg2 := cfg
			cfg2.Heap = pheap.Recover(pmem.NewFromImage(img, cfg.Heap.Mem().Config()), cfg.Heap.Watermark())
			rec := tgt.Recover(cfg2)
			final := make(map[uint64]bool)
			for k := range rec.Snapshot() {
				final[k] = true
			}
			return final, nil
		},
	}, opts)
}

// tagOracle runs the flit-counter quiescence check, filling in
// rep.LiveTags and returning a violation on a leaked tag.
func tagOracle(name string, pol core.Policy, rep *Report, point int) *Violation {
	if pol == nil {
		return nil
	}
	n, ok := core.LiveTagCount(pol)
	if !ok {
		return nil
	}
	rep.LiveTags = n
	if n == 0 {
		return nil
	}
	return &Violation{
		Target: name, Point: point, Stamp: math.MaxInt64,
		Reason: fmt.Sprintf("%d flit counters still tagged at quiescence (Inc without Dec)", n),
	}
}

// crashPoints selects the boundaries to check: all records+1 of them when
// the budget allows, otherwise an evenly-strided subset that always
// includes the first (nothing persisted) and last (everything persisted)
// boundary.
func crashPoints(records, budget int) []int {
	n := records + 1
	if budget <= 0 || n <= budget {
		pts := make([]int, n)
		for i := range pts {
			pts[i] = i
		}
		return pts
	}
	if budget < 2 {
		budget = 2
	}
	pts := make([]int, 0, budget)
	last := -1
	for i := 0; i < budget; i++ {
		k := i * records / (budget - 1)
		if k != last {
			pts = append(pts, k)
			last = k
		}
	}
	return pts
}

// countFences counts distinct (thread, epoch) pairs.
func countFences(recs []pmem.PersistRecord) int {
	type fence struct {
		th int
		ep uint32
	}
	seen := make(map[fence]bool)
	for _, r := range recs {
		seen[fence{r.Thread, r.Epoch}] = true
	}
	return len(seen)
}

// boundaryStamp returns the crash instant of boundary k: just before
// record k's persist began, or the end of time at the final boundary.
func boundaryStamp(recs []pmem.PersistRecord, k int) (int64, *pmem.PersistRecord) {
	if k < len(recs) {
		return recs[k].Stamp - 1, &recs[k]
	}
	return math.MaxInt64, nil
}

// guardPerKeyWindow keeps runs inside the exact checker's 64-op cap with
// a configuration-level message instead of CheckKey's panic.
func guardPerKeyWindow(perKey map[uint64][]hist.Op) {
	for k, ops := range perKey {
		if len(ops) > 64 {
			panic(fmt.Sprintf("dlcheck: %d ops on key %d exceed the exact checker's window; widen KeyRange or shorten the run", len(ops), k))
		}
	}
}

// renderSetSchedule formats a truncated multi-key history in invocation
// order.
func renderSetSchedule(perKey map[uint64][]hist.Op) string {
	var all []hist.Op
	for _, ops := range perKey {
		all = append(all, ops...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	var b strings.Builder
	for _, op := range all {
		end, res := "pending", "?"
		if op.Completed {
			end = fmt.Sprint(op.End)
			res = fmt.Sprint(op.Result)
		}
		fmt.Fprintf(&b, "  [%d,%s] %s(%d) = %s\n", op.Start, end, op.Kind, op.Key, res)
	}
	return b.String()
}

// setDiff summarizes how the recovered key set departs from the naive
// expectation: phantom keys (present but never inserted nor prefilled)
// and untouched prefill keys that vanished.
func setDiff(initial, final map[uint64]bool, perKey map[uint64][]hist.Op) string {
	var phantoms, lost []uint64
	for k := range final {
		if !initial[k] && len(perKey[k]) == 0 {
			phantoms = append(phantoms, k)
		}
	}
	for k := range initial {
		if !final[k] && len(perKey[k]) == 0 {
			lost = append(lost, k)
		}
	}
	sort.Slice(phantoms, func(i, j int) bool { return phantoms[i] < phantoms[j] })
	sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
	var parts []string
	if len(phantoms) > 0 {
		parts = append(parts, fmt.Sprintf("phantom keys (recovered, never written): %v", phantoms))
	}
	if len(lost) > 0 {
		parts = append(parts, fmt.Sprintf("lost untouched prefill keys: %v", lost))
	}
	parts = append(parts, fmt.Sprintf("recovered %d keys, initial %d", len(final), len(initial)))
	return strings.Join(parts, "; ")
}
