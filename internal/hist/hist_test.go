package hist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"flit/internal/core"
)

// mkOp builds a completed op.
func mkOp(kind Kind, start, end int64, ok bool) Op {
	return Op{Kind: kind, Start: start, End: end, Answer: Answer{Ok: ok}, Completed: true}
}

// st is the state of a key holding 0 (present) or absent — what the set
// kinds with In 0 leave behind.
func st(present bool) State { return State{Present: present} }

// pend builds a pending op.
func pend(kind Kind, start int64) Op {
	return Op{Kind: kind, Start: start, End: math.MaxInt64}
}

func TestSequentialHistories(t *testing.T) {
	cases := []struct {
		name   string
		ops    []Op
		init   bool
		final  bool
		accept bool
	}{
		{"empty absent", nil, false, false, true},
		{"empty present", nil, true, true, true},
		{"empty lost prefill", nil, true, false, false},
		{"insert persists", []Op{mkOp(Insert, 1, 2, true)}, false, true, true},
		{"insert lost", []Op{mkOp(Insert, 1, 2, true)}, false, false, false},
		{"insert then delete", []Op{mkOp(Insert, 1, 2, true), mkOp(Delete, 3, 4, true)}, false, false, true},
		{"deleted key resurrected", []Op{mkOp(Insert, 1, 2, true), mkOp(Delete, 3, 4, true)}, false, true, false},
		{"failed insert on present", []Op{mkOp(Insert, 1, 2, false)}, true, true, true},
		{"failed insert result wrong", []Op{mkOp(Insert, 1, 2, false)}, false, true, false},
		{"contains true needs presence", []Op{mkOp(Contains, 1, 2, true)}, false, false, false},
		{"contains false on absent", []Op{mkOp(Contains, 1, 2, false)}, false, false, true},
		{"delete false on absent", []Op{mkOp(Delete, 1, 2, false)}, false, false, true},
		{"delete true on absent", []Op{mkOp(Delete, 1, 2, true)}, false, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := CheckKey(c.ops, st(c.init), st(c.final)); got != c.accept {
				t.Fatalf("CheckKey = %v, want %v", got, c.accept)
			}
		})
	}
}

func TestPendingOpsMayOrMayNotTakeEffect(t *testing.T) {
	// A pending insert explains both presence and absence.
	ops := []Op{pend(Insert, 1)}
	if !CheckKey(ops, st(false), st(true)) || !CheckKey(ops, st(false), st(false)) {
		t.Fatal("pending insert must allow both outcomes")
	}
	// A pending delete of a prefilled key likewise.
	ops = []Op{pend(Delete, 1)}
	if !CheckKey(ops, st(true), st(true)) || !CheckKey(ops, st(true), st(false)) {
		t.Fatal("pending delete must allow both outcomes")
	}
	// But a pending insert cannot explain the loss of a prefilled key.
	if CheckKey(ops[:0], st(true), st(false)) {
		t.Fatal("prefilled key lost with no delete accepted")
	}
}

func TestIntervalOrderRespected(t *testing.T) {
	// insert completes (true), then strictly later contains says false,
	// with no delete: not linearizable.
	ops := []Op{
		mkOp(Insert, 1, 2, true),
		mkOp(Contains, 3, 4, false),
	}
	if CheckKey(ops, st(false), st(true)) {
		t.Fatal("accepted contains=false strictly after completed insert")
	}
	// If they overlap, contains may linearize first: acceptable.
	ops = []Op{
		mkOp(Insert, 1, 4, true),
		mkOp(Contains, 2, 3, false),
	}
	if !CheckKey(ops, st(false), st(true)) {
		t.Fatal("rejected overlapping insert/contains")
	}
}

func TestConcurrentInsertDelete(t *testing.T) {
	// Two overlapping ops: insert=true, delete=true. Both orders valid but
	// final state differs: delete-last -> absent; the reverse is
	// impossible because delete(true) needs presence first.
	ops := []Op{
		mkOp(Insert, 1, 10, true),
		mkOp(Delete, 2, 9, true),
	}
	if !CheckKey(ops, st(false), st(false)) {
		t.Fatal("rejected insert;delete -> absent")
	}
	if CheckKey(ops, st(false), st(true)) {
		t.Fatal("accepted impossible final=true for insert(true)+delete(true) from absent")
	}
}

func TestCrashedDeleteMayResurface(t *testing.T) {
	// Prefilled key, delete pending at crash: both outcomes fine; a later
	// completed contains pins the order.
	ops := []Op{
		pend(Delete, 5),
		mkOp(Contains, 6, 7, true),
	}
	if !CheckKey(ops, st(true), st(true)) {
		t.Fatal("rejected pending delete that never took effect")
	}
	// contains=true completed, then recovered absent: the pending delete
	// can still linearize after the contains. Accepted.
	if !CheckKey(ops, st(true), st(false)) {
		t.Fatal("rejected pending delete linearized after the contains")
	}
}

func TestRecorderAndGather(t *testing.T) {
	clock := &Clock{}
	r1 := NewRecorder(clock)
	r2 := NewRecorder(clock)
	tok := r1.Begin(Insert, 7, 0)
	r1.Finish(tok, Answer{Ok: true})
	r2.Begin(Delete, 7, 0) // crashes pending
	perKey := Gather([]*Recorder{r1, r2})
	if len(perKey[7]) != 2 {
		t.Fatalf("gathered %d ops, want 2", len(perKey[7]))
	}
	var completed, pending int
	for _, op := range perKey[7] {
		if op.Completed {
			completed++
		} else {
			pending++
		}
	}
	if completed != 1 || pending != 1 {
		t.Fatalf("completed=%d pending=%d", completed, pending)
	}
	if perKey[7][0].Start >= perKey[7][0].End {
		t.Fatal("timestamps not increasing")
	}
}

func TestCheckWholeHistory(t *testing.T) {
	clock := &Clock{}
	r := NewRecorder(clock)
	tok := r.Begin(Insert, 1, 0)
	r.Finish(tok, Answer{Ok: true})
	tok = r.Begin(Insert, 2, 0)
	r.Finish(tok, Answer{Ok: true})
	tok = r.Begin(Delete, 2, 0)
	r.Finish(tok, Answer{Ok: true})

	good := map[uint64]uint64{1: 0}
	if v := Check([]*Recorder{r}, nil, good); v != nil {
		t.Fatalf("valid history rejected: %v", v)
	}
	bad := map[uint64]uint64{1: 0, 2: 0}
	if v := Check([]*Recorder{r}, nil, bad); v == nil {
		t.Fatal("resurrected key accepted")
	} else if v.Key != 2 {
		t.Fatalf("violation on key %d, want 2", v.Key)
	}
	// A prefilled, untouched key must survive.
	if v := Check([]*Recorder{r}, map[uint64]uint64{9: 0}, good); v == nil {
		t.Fatal("lost prefilled key accepted")
	}
}

// TestQuickGeneratedSequentialHistoriesAccepted: simulate a correct
// sequential execution with random crash cut; the checker must accept the
// surviving state both when pending ops take effect and when they don't.
func TestQuickGeneratedSequentialHistoriesAccepted(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		clock := &Clock{}
		r := NewRecorder(clock)
		present := false
		for i := 0; i < int(n%24); i++ {
			kind := Kind(rng.Intn(3))
			tok := r.Begin(kind, 1, 0)
			var res bool
			switch kind {
			case Insert:
				res = !present
				present = true
			case Delete:
				res = present
				present = false
			case Contains:
				res = present
			}
			r.Finish(tok, Answer{Ok: res})
		}
		// Optionally leave one op pending, applied or not.
		finals := []bool{present}
		if rng.Intn(2) == 0 {
			kind := Kind(rng.Intn(2))
			r.Begin(kind, 1, 0)
			applied := present
			if kind == Insert {
				applied = true
			} else {
				applied = false
			}
			finals = append(finals, applied)
		}
		for _, fin := range finals {
			if !CheckKey(r.ops, st(false), st(fin)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMutatedHistoriesRejected: flipping the final state of a
// deterministic alternating history must be rejected.
func TestQuickMutatedHistoriesRejected(t *testing.T) {
	f := func(n uint8) bool {
		clock := &Clock{}
		r := NewRecorder(clock)
		present := false
		for i := 0; i < 2+int(n%10); i++ {
			var tok int
			if present {
				tok = r.Begin(Delete, 1, 0)
				present = false
			} else {
				tok = r.Begin(Insert, 1, 0)
				present = true
			}
			r.Finish(tok, Answer{Ok: true})
		}
		return !CheckKey(r.ops, st(false), st(!present)) // flipped outcome must fail
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTooManyOpsPanics(t *testing.T) {
	ops := make([]Op, 65)
	for i := range ops {
		ops[i] = mkOp(Contains, int64(2*i), int64(2*i+1), false)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversized per-key history")
		}
	}()
	CheckKey(ops, st(false), st(false))
}

// val builds a completed op of a map kind: input in, answer (ok, out).
func val(kind Kind, start, end int64, in uint64, ok bool, out uint64) Op {
	return Op{Kind: kind, In: in, Start: start, End: end, Answer: Answer{Ok: ok, Out: out}, Completed: true}
}

func TestMapHistories(t *testing.T) {
	absent, has := State{}, func(v uint64) State { return State{true, v} }
	blindAdd := Op{Kind: Add, In: 5, Start: 1, End: 2, Answer: Answer{Blind: true}, Completed: true}
	cases := []struct {
		name        string
		ops         []Op
		init, final State
		accept      bool
	}{
		{"put overwrites", []Op{val(Put, 1, 2, 9, false, 0)}, has(3), has(9), true},
		{"put overwrite lost", []Op{val(Put, 1, 2, 9, false, 0)}, has(3), has(3), false},
		{"insert keeps old value", []Op{val(Insert, 1, 2, 9, false, 0)}, has(3), has(3), true},
		{"get reads the put", []Op{val(Put, 1, 2, 9, true, 0), val(Get, 3, 4, 0, true, 9)}, absent, has(9), true},
		{"get reads a stale value", []Op{val(Put, 1, 2, 9, false, 0), val(Get, 3, 4, 0, true, 3)}, has(3), has(9), false},
		{"add sums", []Op{val(Add, 1, 2, 4, true, 7)}, has(3), has(7), true},
		{"add on absent stores the delta", []Op{val(Add, 1, 2, 4, false, 4)}, absent, has(4), true},
		{"add wraps", []Op{val(Add, 1, 2, ^uint64(0), true, ValueMask)}, has(0), has(ValueMask), true},
		{"add answer wrong", []Op{val(Add, 1, 2, 4, true, 8)}, has(3), has(7), false},
		{"blind add takes effect", []Op{blindAdd}, has(3), has(8), true},
		{"blind add lost", []Op{blindAdd}, has(3), has(3), false},
		{"pending add may vanish", []Op{{Kind: Add, In: 5, Start: 1, End: math.MaxInt64}}, has(3), has(3), true},
		{"high bits are not compared", []Op{val(Put, 1, 2, 9|core.DirtyBit, true, 0)}, absent, has(9 | core.MarkBit), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := CheckKey(c.ops, c.init, c.final); got != c.accept {
				t.Fatalf("CheckKey = %v, want %v", got, c.accept)
			}
		})
	}
}
