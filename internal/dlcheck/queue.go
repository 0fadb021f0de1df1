package dlcheck

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"flit/internal/core"
	"flit/internal/hist"
	"flit/internal/pmem"
)

// QueueSession is the per-goroutine surface of a FIFO queue under check
// (internal/dstruct/queue's Thread satisfies it).
type QueueSession interface {
	Enqueue(v uint64)
	Dequeue() (uint64, bool)
}

// QueueHarness abstracts a durable FIFO queue for the enumerator, in the
// same shape as Harness. Recover returns the recovered contents in FIFO
// order.
type QueueHarness struct {
	Name       string
	Mem        *pmem.Memory
	Policy     core.Policy // feeds the tag oracle; nil skips it
	NewSession func() QueueSession
	Recover    func(img []uint64) ([]uint64, error)
}

// maxQueueOps bounds a queue run's total operation count: queue
// linearizability is not per-key local, so hist.CheckQueue searches the
// whole truncated history at every boundary and a long, heavily
// overlapped schedule can blow up its interval-order search.
const maxQueueOps = 24

// RunQueue is Run for FIFO queues. Queue linearizability is not per-key
// local, so the whole truncated history is decided by hist.CheckQueue at
// every boundary; OpsPerWorker is clamped so the run never exceeds
// maxQueueOps total operations (the set-battery default of 3×18 would
// otherwise be quietly intractable). Enqueued values are unique per
// (worker, op), making recovered contents unambiguous in repro traces.
// As with Harness, the queue must be freshly constructed: the engine's
// prefill is the entire initial state.
func RunQueue(h QueueHarness, opts Options) *Report {
	opts = opts.Normalized()
	if opts.Workers*opts.OpsPerWorker > maxQueueOps {
		opts.OpsPerWorker = maxQueueOps / opts.Workers
		if opts.OpsPerWorker < 1 {
			opts.OpsPerWorker = 1
		}
	}

	setup := h.NewSession()
	var initial []uint64
	for k := 0; k < opts.Prefill; k++ {
		v := uint64(1_000_000 + k)
		setup.Enqueue(v)
		initial = append(initial, v)
	}
	base := h.Mem.CrashImage(pmem.DropUnfenced, 0)

	clock := &hist.Clock{}
	trace := h.Mem.StartTrace(clock.Now)
	recs := make([]*hist.QRecorder, opts.Workers)
	sessions := make([]QueueSession, opts.Workers)
	for w := range recs {
		recs[w] = hist.NewQRecorder(clock)
		sessions[w] = h.NewSession()
	}
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th, rec := sessions[w], recs[w]
			rng := rand.New(rand.NewSource(opts.Seed + int64(w)*104729))
			for i := 0; i < opts.OpsPerWorker; i++ {
				if rng.Intn(2) == 0 {
					v := uint64((w+1)<<20 | i)
					tok := rec.BeginEnqueue(v)
					th.Enqueue(v)
					rec.FinishEnqueue(tok)
				} else {
					tok := rec.BeginDequeue()
					v, ok := th.Dequeue()
					rec.FinishDequeue(tok, v, ok)
				}
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

	var allOps []hist.QOp
	for _, r := range recs {
		allOps = append(allOps, r.Ops()...)
	}
	sort.Slice(allOps, func(i, j int) bool { return allOps[i].Start < allOps[j].Start })
	if len(allOps) > 64 {
		panic(fmt.Sprintf("dlcheck: %d queue ops exceed the exact checker's window; shorten the run", len(allOps)))
	}

	starts := make([]int64, len(allOps))
	for i, op := range allOps {
		starts[i] = op.Start
	}
	enumerate(rep, base, records, opts.Budget, opts.Seed, starts, func(img []uint64, stamp int64) *Violation {
		trunc := hist.TruncateQ(allOps, stamp)
		final, err := h.Recover(img)
		if err != nil {
			// A failed recovery is debuggable from the artifact alone too:
			// carry the schedule that produced the unrecoverable image.
			return &Violation{
				Reason:   fmt.Sprintf("recovery failed: %v", err),
				Schedule: renderQueueSchedule(trunc),
				Diff:     fmt.Sprintf("initial %v (recovery aborted before a snapshot)", initial),
			}
		}
		if qv := hist.CheckQueue(trunc, initial, final); qv != nil {
			return &Violation{
				Reason:   qv.Error(),
				Schedule: renderQueueSchedule(trunc),
				Diff:     fmt.Sprintf("recovered contents %v, initial %v", final, initial),
			}
		}
		return nil
	})
	return rep
}

// renderQueueSchedule formats a truncated queue history in invocation
// order.
func renderQueueSchedule(ops []hist.QOp) string {
	var b strings.Builder
	for _, op := range ops {
		b.WriteString("  " + op.String() + "\n")
	}
	return b.String()
}
