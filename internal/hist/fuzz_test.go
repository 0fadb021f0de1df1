package hist

import (
	"math"
	"testing"
)

// FuzzCheckKey feeds arbitrary per-key histories to the checker: it must
// never panic (below the 64-op bound) and must stay consistent with two
// invariants — adding a pending op can only widen the acceptable finals,
// and a pending Put invoked after everything else can always be the last
// word. init and final pick a present-or-absent state holding 1 and 0.
func FuzzCheckKey(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, true, false)
	f.Add([]byte{9, 9, 9}, false, true)
	f.Add([]byte{}, true, true)
	// Duplicate responses: back-to-back completed inserts (both reporting
	// success is inconsistent), duplicated deletes, and insert/delete
	// pairs that both claim the same transition.
	f.Add([]byte{24, 24}, false, true)
	f.Add([]byte{25, 25, 24, 24}, false, false)
	f.Add([]byte{24, 0, 24, 0}, false, true)
	// Crash-truncated shapes: pending tails (b/6%4==3 → pending) behind
	// completed prefixes, and alternating pending/completed traffic.
	f.Add([]byte{24, 18, 43, 66}, false, true)
	f.Add([]byte{0, 18, 1, 43, 2, 66}, true, false)
	f.Add([]byte{18, 18, 18}, false, false)
	// The map kinds: a put read back by a get, adds on an absent and a
	// present key (one of them wrapping: In -1), and blind adds.
	f.Add([]byte{27, 10, 11}, false, true)
	f.Add([]byte{5, 17, 29, 28}, true, false)
	f.Add([]byte{47, 47, 16}, false, true)
	f.Add([]byte{3, 23, 41, 22, 4}, true, true)
	f.Fuzz(func(t *testing.T, raw []byte, init, final bool) {
		if len(raw) > 20 {
			raw = raw[:20]
		}
		ops := opsFromBytes(raw)
		initSt, finalSt := State{init, 1}, State{final, 0}
		accepted := CheckKey(ops, initSt, finalSt)

		// Invariant: appending a pending op never shrinks acceptance.
		widened := append(append([]Op(nil), ops...), Op{
			Kind: Put, In: 7, Start: int64(2*len(ops) + 1), End: math.MaxInt64,
		})
		if accepted && !CheckKey(widened, initSt, finalSt) {
			t.Fatalf("adding a pending op rejected a previously valid history")
		}
		// A pending put after everything else must explain its value.
		if accepted && !CheckKey(widened, initSt, State{true, 7}) {
			t.Fatalf("pending put cannot explain its value surviving")
		}
	})
}

// opsFromBytes decodes the fuzz byte encoding shared by the hist fuzz
// targets: kind = b%6 and, with r = b/6, completed unless r%4==3, Ok =
// r&4 != 0, In = {0, 1, -1}[r%3], Out = {0, 1, 2}[r/8%3], blind for an
// Add with r%7==0; op i occupies [2i+1, 2i+2].
func opsFromBytes(raw []byte) []Op {
	ops := make([]Op, 0, len(raw))
	ts := int64(1)
	for _, b := range raw {
		r := b / 6
		op := Op{Kind: Kind(b % 6), In: []uint64{0, 1, ^uint64(0)}[r%3], Start: ts, End: ts + 1,
			Completed: r%4 != 3}
		if op.Completed {
			op.Answer = Answer{Ok: r&4 != 0, Out: uint64(r / 8 % 3), Blind: op.Kind == Add && r%7 == 0}
		} else {
			op.End = math.MaxInt64
		}
		ts += 2
		ops = append(ops, op)
	}
	return ops
}

// FuzzTruncate checks the crash-projection's invariants: truncation is
// idempotent, truncating past every response is the identity, and
// truncating at the last invocation (which drops nothing, only demotes)
// can only widen the set of acceptable finals.
func FuzzTruncate(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, true, false, uint8(3))
	f.Add([]byte{4, 3, 7, 11}, false, true, uint8(5))
	f.Add([]byte{5, 5, 4, 4}, false, false, uint8(0))
	f.Add([]byte{}, true, true, uint8(9))
	f.Fuzz(func(t *testing.T, raw []byte, init, final bool, stampRaw uint8) {
		if len(raw) > 16 {
			raw = raw[:16]
		}
		ops := opsFromBytes(raw)
		stamp := int64(stampRaw)

		trunc := Truncate(ops, stamp)
		again := Truncate(trunc, stamp)
		if len(again) != len(trunc) {
			t.Fatalf("truncation not idempotent: %d then %d ops", len(trunc), len(again))
		}
		for i := range trunc {
			if trunc[i] != again[i] {
				t.Fatalf("truncation not idempotent at op %d: %+v vs %+v", i, trunc[i], again[i])
			}
		}

		ident := Truncate(ops, math.MaxInt64)
		if len(ident) != len(ops) {
			t.Fatalf("identity truncation dropped ops: %d of %d", len(ident), len(ops))
		}
		for i := range ops {
			if ident[i] != ops[i] {
				t.Fatalf("identity truncation mangled op %d", i)
			}
		}

		if len(ops) > 0 {
			lastStart := ops[len(ops)-1].Start // starts are increasing
			demoted := Truncate(ops, lastStart)
			if len(demoted) != len(ops) {
				t.Fatalf("demotion-only truncation dropped ops")
			}
			if CheckKey(ops, State{init, 1}, State{final, 0}) && !CheckKey(demoted, State{init, 1}, State{final, 0}) {
				t.Fatalf("demoting running ops to pending shrank acceptance")
			}
		}
	})
}
