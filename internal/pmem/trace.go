package pmem

import "sync"

// PersistRecord is one line write-back drained into the persistent shadow:
// the unit of the durable-linearizability checker's crash-point model.
// Applying a prefix of a trace's records to the trace's base image yields
// exactly the persistent state a power failure at that boundary would have
// left behind (under DropUnfenced semantics — pending, never-fenced
// write-backs are lost).
type PersistRecord struct {
	// Thread is the ID of the thread whose PFence drained the line.
	Thread int
	// Epoch is the thread's write-back-queue generation at drain time: all
	// records of one fence share (Thread, Epoch), so distinct persist
	// points (fences) are recoverable from a flat line-granular trace.
	Epoch uint32
	// Line is the drained cache line.
	Line Line
	// Words are the values copied into the persistent shadow.
	Words [WordsPerLine]uint64
	// Stamp is drawn from the trace clock immediately *before* the shadow
	// write, under the trace lock. Consequences for checkers: (1) records
	// sorted by Stamp are in true shadow-write order, and (2) any event
	// stamped after a record's Stamp is causally after the trace lock was
	// taken, so an operation whose response stamp exceeds a record's stamp
	// cannot have completed before that record's persist began. Both are
	// what makes prefix images sound crash states to check completed
	// operations against.
	Stamp int64
}

// Trace accumulates the persist-line events of one recorded execution.
// While a trace is attached (StartTrace), every fence drain is serialized
// through the trace lock — tracing trades drain parallelism for a total
// order, which is what makes prefix replay exact. Detach with StopTrace
// before measuring anything.
type Trace struct {
	mu   sync.Mutex
	now  func() int64
	recs []PersistRecord
}

// StartTrace attaches a persist tracer to the memory and returns it. now
// supplies stamps and must be a strictly increasing shared clock — the
// durable-linearizability checker passes the same hist.Clock its history
// recorders stamp against, so persist events and operation
// invocations/responses land in one total order.
//
// Like SetCosts, attachment is unsynchronized: callers must be quiescent
// (no thread issuing instructions) when starting or stopping a trace.
// Worker goroutines started after StartTrace observe it via the usual
// go-statement happens-before edge.
func (m *Memory) StartTrace(now func() int64) *Trace {
	tr := &Trace{now: now}
	m.trace = tr
	return tr
}

// StopTrace detaches the tracer (callers quiescent, as for StartTrace).
// The Trace remains readable afterwards.
func (m *Memory) StopTrace() { m.trace = nil }

// drain performs one traced line write-back: stamp, write the line back,
// record what reached the shadow — all under the trace lock (and the
// caller's per-line drainLock), so the record sequence is the exact
// global shadow-write order.
func (tr *Trace) drain(t *Thread, l Line) {
	tr.mu.Lock()
	r := PersistRecord{Thread: t.ID, Epoch: t.wb.epoch, Line: l, Stamp: tr.now()}
	copy(r.Words[:], t.M.writeBack(l))
	tr.recs = append(tr.recs, r)
	tr.mu.Unlock()
}

// Records returns a copy of the recorded persist events, in shadow-write
// (and Stamp) order.
func (tr *Trace) Records() []PersistRecord {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]PersistRecord(nil), tr.recs...)
}

// ApplyRecord replays one persist event onto a crash image (a word slice
// as returned by CrashImage): the image after applying records 0..k-1 of
// a trace to its base image is the persistent state of a crash between
// record k-1 and record k.
func ApplyRecord(img []uint64, r PersistRecord) {
	base := Addr(r.Line) << LineShift
	copy(img[base:base+WordsPerLine], r.Words[:])
}
