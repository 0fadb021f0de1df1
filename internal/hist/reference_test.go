package hist

import (
	"math"
	"math/rand"
	"testing"
)

// spec is the map's sequential specification, written out apart from the
// checker's step so that the reference below shares none of its code:
// it returns the state after op and whether op's answer, if it has one,
// is the one the specification gives.
func spec(op Op, s State) (State, bool) {
	var want Answer
	next := s
	switch op.Kind {
	case Insert:
		want.Ok = !s.Present
		if !s.Present {
			next = State{true, op.In & ValueMask}
		}
	case Delete:
		want.Ok = s.Present
		next = State{}
	case Contains:
		want.Ok = s.Present
	case Put:
		want.Ok = !s.Present
		next = State{true, op.In & ValueMask}
	case Get:
		want.Ok = s.Present
		want.Out = s.Val
	case Add:
		want.Ok = s.Present
		sum := op.In
		if s.Present {
			sum += s.Val
		}
		next = State{true, sum & ValueMask}
		want.Out = next.Val
	}
	if !op.Completed || op.Blind {
		return next, true
	}
	got := Answer{Ok: op.Ok}
	if op.Kind == Add || op.Kind == Get && op.Ok {
		got.Out = op.Out & ValueMask
	}
	if op.Kind == Get && !op.Ok {
		want.Out = 0
	}
	return next, got == want
}

// reachable is the brute-force reference: it walks every sequence of
// distinct ops that holds all completed ones and respects the interval
// order — every subset of the pending ops in every admissible order —
// runs each through spec from init, and returns the final states of the
// sequences whose answers all match.
func reachable(ops []Op, init State) map[State]bool {
	out := map[State]bool{}
	placed := make([]bool, len(ops))
	var walk func(s State, left int)
	walk = func(s State, left int) {
		if left == 0 {
			out[s] = true // the pending ops not placed vanished
		}
		for i := range ops {
			if placed[i] {
				continue
			}
			eligible := true
			for j := range ops {
				if j != i && !placed[j] && ops[j].End < ops[i].Start {
					eligible = false
				}
			}
			if !eligible {
				continue
			}
			next, ok := spec(ops[i], s)
			if !ok {
				continue
			}
			placed[i] = true
			if ops[i].Completed {
				walk(next, left-1)
			} else {
				walk(next, left)
			}
			placed[i] = false
		}
	}
	completed := 0
	for _, op := range ops {
		if op.Completed {
			completed++
		}
	}
	walk(init, completed)
	return out
}

// randomHistory draws up to 7 ops on one key over all six kinds: random
// overlapping intervals, a fifth of them pending, answers drawn from a
// small value set (so that some are right) and a quarter of the completed
// Adds blind. ValueMask among the values is -1 modulo the payload, so
// Adds wrap.
func randomHistory(rng *rand.Rand) []Op {
	vals := []uint64{0, 1, 2, ValueMask}
	ops := make([]Op, rng.Intn(8))
	for i := range ops {
		start := int64(rng.Intn(16))
		op := Op{Kind: Kind(rng.Intn(6)), In: vals[rng.Intn(len(vals))], Start: start, End: math.MaxInt64}
		if rng.Intn(5) != 0 {
			op.Completed = true
			op.End = start + 1 + int64(rng.Intn(8))
			op.Answer = Answer{Ok: rng.Intn(2) == 0, Out: vals[rng.Intn(len(vals))]}
			op.Blind = op.Kind == Add && rng.Intn(4) == 0
		}
		ops[i] = op
	}
	return ops
}

// TestCheckKeyMatchesBruteForce holds CheckKey to the brute-force
// reference on 10 000 seeded random histories: for every candidate final
// state — absent, each small value, and every state the reference reaches
// — CheckKey must accept exactly the reachable ones.
func TestCheckKeyMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inits := []State{{}, {true, 0}, {true, 1}, {true, ValueMask}}
	var accepted, rejected int
	for n := 0; n < 10000; n++ {
		ops := randomHistory(rng)
		init := inits[rng.Intn(len(inits))]
		want := reachable(ops, init)
		candidates := []State{{}, {true, 0}, {true, 1}, {true, 2}, {true, 3}, {true, ValueMask}}
		for s := range want {
			candidates = append(candidates, s)
		}
		for _, final := range candidates {
			if got := CheckKey(ops, init, final); got != want[final] {
				t.Fatalf("history %d from %v to %v: CheckKey = %v, brute force = %v\n%v",
					n, init, final, got, want[final], (&Violation{Initial: init, Final: final, Ops: ops}).Error())
			}
			if want[final] {
				accepted++
			} else {
				rejected++
			}
		}
	}
	if accepted < 1000 || rejected < 1000 {
		t.Fatalf("lopsided sample: %d accepted, %d rejected", accepted, rejected)
	}
}
