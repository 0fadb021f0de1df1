package hist

import (
	"math"
	"testing"
)

func qop(kind QKind, v uint64, ok bool, start, end int64) QOp {
	op := QOp{Kind: kind, Value: v, OK: ok, Start: start, End: end, Completed: true}
	if end == math.MaxInt64 {
		op.Completed = false
		op.OK = false
	}
	return op
}

func TestCheckQueueSequential(t *testing.T) {
	ops := []QOp{
		qop(QEnqueue, 1, false, 1, 2),
		qop(QEnqueue, 2, false, 3, 4),
		qop(QDequeue, 1, true, 5, 6),
	}
	if v := CheckQueue(ops, nil, []uint64{2}); v != nil {
		t.Fatalf("valid FIFO history rejected: %v", v)
	}
	// Dequeue out of FIFO order must be rejected.
	bad := []QOp{
		qop(QEnqueue, 1, false, 1, 2),
		qop(QEnqueue, 2, false, 3, 4),
		qop(QDequeue, 2, true, 5, 6),
	}
	if CheckQueue(bad, nil, []uint64{1}) == nil {
		t.Fatal("out-of-order dequeue accepted")
	}
	// Empty dequeue while an element is present must be rejected.
	bad2 := []QOp{
		qop(QEnqueue, 1, false, 1, 2),
		qop(QDequeue, 0, false, 3, 4),
	}
	if CheckQueue(bad2, nil, []uint64{1}) == nil {
		t.Fatal("empty dequeue on non-empty queue accepted")
	}
}

func TestCheckQueueInitialState(t *testing.T) {
	// Prefilled elements are dequeued first.
	ops := []QOp{qop(QDequeue, 7, true, 1, 2)}
	if v := CheckQueue(ops, []uint64{7, 8}, []uint64{8}); v != nil {
		t.Fatalf("prefill dequeue rejected: %v", v)
	}
	if CheckQueue(ops, []uint64{8, 7}, []uint64{7}) == nil {
		t.Fatal("dequeue of non-front prefill accepted")
	}
	// An untouched prefilled element must survive.
	if CheckQueue(nil, []uint64{5}, nil) == nil {
		t.Fatal("lost prefill element accepted")
	}
}

func TestCheckQueueConcurrentOverlap(t *testing.T) {
	// Two overlapping enqueues may linearize either way.
	ops := []QOp{
		qop(QEnqueue, 1, false, 1, 10),
		qop(QEnqueue, 2, false, 2, 9),
	}
	if v := CheckQueue(ops, nil, []uint64{2, 1}); v != nil {
		t.Fatalf("overlap order rejected: %v", v)
	}
	if v := CheckQueue(ops, nil, []uint64{1, 2}); v != nil {
		t.Fatalf("overlap order rejected: %v", v)
	}
	// Non-overlapping enqueues must keep real-time order.
	seq := []QOp{
		qop(QEnqueue, 1, false, 1, 2),
		qop(QEnqueue, 2, false, 3, 4),
	}
	if CheckQueue(seq, nil, []uint64{2, 1}) == nil {
		t.Fatal("real-time order inversion accepted")
	}
}

func TestCheckQueueCrashSemantics(t *testing.T) {
	// A pending enqueue may take effect or vanish.
	pend := []QOp{qop(QEnqueue, 3, false, 1, math.MaxInt64)}
	if v := CheckQueue(pend, nil, []uint64{3}); v != nil {
		t.Fatalf("pending enqueue taking effect rejected: %v", v)
	}
	if v := CheckQueue(pend, nil, nil); v != nil {
		t.Fatalf("pending enqueue vanishing rejected: %v", v)
	}
	// A completed dequeue must not resurrect: value gone from final.
	ops := []QOp{
		qop(QEnqueue, 1, false, 1, 2),
		qop(QDequeue, 1, true, 3, 4),
	}
	if CheckQueue(ops, nil, []uint64{1}) == nil {
		t.Fatal("dequeued element resurrected and accepted")
	}
	// A pending dequeue may remove the front element.
	ops2 := []QOp{
		qop(QEnqueue, 1, false, 1, 2),
		qop(QDequeue, 0, false, 3, math.MaxInt64),
	}
	if v := CheckQueue(ops2, nil, nil); v != nil {
		t.Fatalf("pending dequeue taking effect rejected: %v", v)
	}
	// The durable-queue hole the failed-p-CAS fix closes: deq(v) completed
	// while the pending deq(front) lost its taken mark — recovered state
	// still holds the front element, which no linearization explains.
	hole := []QOp{
		qop(QEnqueue, 1, false, 1, 2),
		qop(QEnqueue, 2, false, 3, 4),
		qop(QDequeue, 0, false, 5, math.MaxInt64), // pending deq of 1
		qop(QDequeue, 2, true, 6, 7),              // completed deq of 2
	}
	if CheckQueue(hole, nil, []uint64{1}) == nil {
		t.Fatal("resurrected front ahead of a completed dequeue accepted")
	}
	// With the front really gone, the same history is fine.
	if v := CheckQueue(hole, nil, nil); v != nil {
		t.Fatalf("valid crash outcome rejected: %v", v)
	}
}

func TestTruncateQ(t *testing.T) {
	ops := []QOp{
		qop(QEnqueue, 1, false, 1, 4),
		qop(QDequeue, 1, true, 5, 8),
		qop(QEnqueue, 2, false, 9, 10),
	}
	got := TruncateQ(ops, 6)
	if len(got) != 2 {
		t.Fatalf("truncate kept %d ops, want 2", len(got))
	}
	if !got[0].Completed || got[0].Value != 1 {
		t.Fatalf("completed op mangled: %+v", got[0])
	}
	if got[1].Completed || got[1].OK || got[1].End != math.MaxInt64 {
		t.Fatalf("running op not demoted to pending: %+v", got[1])
	}
	// Truncation at a stamp past every response is the identity.
	if all := TruncateQ(ops, 100); len(all) != 3 || !all[2].Completed {
		t.Fatalf("identity truncation mangled history: %+v", all)
	}
}

func TestTruncateSet(t *testing.T) {
	ops := []Op{
		{Kind: Insert, Key: 1, Answer: Answer{Ok: true}, Completed: true, Start: 1, End: 4},
		{Kind: Contains, Key: 1, Answer: Answer{Ok: true}, Completed: true, Start: 5, End: 8},
		{Kind: Delete, Key: 1, Answer: Answer{Ok: true}, Completed: true, Start: 9, End: 10},
	}
	got := Truncate(ops, 6)
	if len(got) != 2 {
		t.Fatalf("truncate kept %d ops, want 2", len(got))
	}
	if !got[0].Completed {
		t.Fatalf("completed op demoted: %+v", got[0])
	}
	if got[1].Completed || got[1].Ok {
		t.Fatalf("running op not demoted: %+v", got[1])
	}
	// The surviving completed insert still forces presence at this crash
	// point; the dropped delete (invoked after the crash) no longer can
	// explain absence.
	if !CheckKey(got, st(false), st(true)) {
		t.Fatal("truncated history rejected the forced outcome")
	}
	if CheckKey(got, st(false), st(false)) {
		t.Fatal("truncated history accepted absence the completed insert forbids")
	}
}
