// Package hist records concurrent histories of sets and maps and checks
// durable linearizability [Izraelevitz et al., DISC'16] against a
// post-crash state.
//
// The sequential specification is a map: each key is absent or holds a
// value, which the set kinds (Insert, Delete, Contains) and the store's
// (Put, Get, Add, Delete) share, so a recovered structure is checked for
// which keys survived and for the value each one holds.
//
// The checker is per-key: linearizability is local (Herlihy & Wing), and
// a map is a product of per-key registers, so a multi-key history is
// durably linearizable iff every per-key subhistory is — per-key checking
// is both sound and complete here. Each per-key subhistory is decided
// exactly (Wing–Gong style interval-order search with memoization), under
// crash semantics: operations that completed before the crash must appear
// with their observed answers; operations pending at the crash may take
// effect or vanish. A completed op that answered nothing (a combined-mode
// Add: Answer.Blind) takes effect unchecked.
//
// Values are read as instrumented payloads (ValueMask: a policy's high
// bits, link-and-persist's dirty bit among them, are metadata), and Add
// wraps there.
package hist

import (
	"fmt"
	"math"
	"sync/atomic"

	"flit/internal/core"
)

// ValueMask is the part of a value the checker compares: the payload of
// an instrumented word.
const ValueMask = core.PayloadMask

// Kind is an operation type.
type Kind int8

// Operation kinds; Ok and Out name the fields of the operation's Answer.
const (
	// Insert adds key→In if the key is absent; Ok: newly inserted.
	Insert Kind = iota
	// Delete removes the key; Ok: it was present.
	Delete
	// Contains probes the key; Ok: present.
	Contains
	// Put stores key→In, inserting or overwriting; Ok: newly inserted.
	Put
	// Get reads the key; Ok: present, Out: its value when present.
	Get
	// Add adds In (wrapping) to the key's value, storing key→In when the
	// key is absent; Ok: it was present, Out: the new value.
	Add
)

var kindNames = [...]string{"insert", "delete", "contains", "put", "get", "add"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Answer is what a completed operation returned.
type Answer struct {
	Ok  bool
	Out uint64
	// Blind marks a response that carries no answer: the operation took
	// effect, and Ok and Out are not checked.
	Blind bool
}

// Op is one recorded operation.
type Op struct {
	Kind Kind
	Key  uint64
	// In is the value Insert and Put write, or the delta Add adds.
	In uint64
	Answer
	Completed bool  // the response returned before the crash; Answer is valid only then
	Start     int64 // invocation timestamp
	End       int64 // response timestamp; math.MaxInt64 while pending
}

func (op Op) String() string {
	end, res, arg := "pending", "?", ""
	if op.Completed {
		end, res = fmt.Sprint(op.End), fmt.Sprint(op.Ok)
		switch {
		case op.Blind:
			res = "blind"
		case op.Kind == Get:
			res = State{op.Ok, op.Out}.norm().String()
		case op.Kind == Add:
			res = fmt.Sprintf("%d (present=%v)", op.Out&ValueMask, op.Ok)
		}
	}
	if op.Kind == Insert || op.Kind == Put || op.Kind == Add {
		arg = fmt.Sprintf(", %d", int64(op.In<<4)>>4) // a signed payload: an Add of -1 reads -1
	}
	return fmt.Sprintf("[%d,%s] %s(%d%s) = %s", op.Start, end, op.Kind, op.Key, arg, res)
}

// State is one key's state: absent, or present holding Val.
type State struct {
	Present bool
	Val     uint64
}

// StateOf reads key's state from a key→value map.
func StateOf(m map[uint64]uint64, key uint64) State {
	v, ok := m[key]
	return State{ok, v}.norm()
}

// norm reduces s to what the checker compares.
func (s State) norm() State {
	if !s.Present {
		return State{}
	}
	return State{true, s.Val & ValueMask}
}

func (s State) String() string {
	if !s.Present {
		return "absent"
	}
	return fmt.Sprint(s.Val)
}

// step applies op to the state st sequentially: it returns the state
// after op and whether op's recorded answer (if it has one) matches.
func step(op Op, st State) (State, bool) {
	checked := op.Completed && !op.Blind
	in := op.In & ValueMask
	switch op.Kind {
	case Insert:
		ok := !checked || op.Ok != st.Present
		if !st.Present {
			st = State{true, in}
		}
		return st, ok
	case Delete:
		return State{}, !checked || op.Ok == st.Present
	case Put:
		return State{true, in}, !checked || op.Ok != st.Present
	case Get:
		return st, !checked || op.Ok == st.Present && (!st.Present || op.Out&ValueMask == st.Val)
	case Add:
		ok := !checked || op.Ok == st.Present
		if st.Present {
			in = (st.Val + in) & ValueMask
		}
		return State{true, in}, ok && (!checked || op.Out&ValueMask == in)
	default: // Contains
		return st, !checked || op.Ok == st.Present
	}
}

// Clock is the shared logical clock all recorders stamp against: if op A's
// response precedes op B's invocation in real time, A.End < B.Start.
type Clock struct{ c atomic.Int64 }

// Now returns a fresh, strictly increasing timestamp.
func (c *Clock) Now() int64 { return c.c.Add(1) }

// Recorder logs the operations of a single thread. Not safe for sharing;
// one per worker goroutine.
type Recorder struct {
	clock *Clock
	ops   []Op
}

// NewRecorder creates a recorder stamping against clock.
func NewRecorder(clock *Clock) *Recorder { return &Recorder{clock: clock} }

// Begin logs an invocation of kind on key with input in (the value
// Insert and Put write, the delta Add adds; ignored by the other kinds)
// and returns a token for Finish. If the thread crashes before Finish,
// the op remains recorded as pending.
func (r *Recorder) Begin(kind Kind, key, in uint64) int {
	r.ops = append(r.ops, Op{
		Kind: kind, Key: key, In: in,
		Start: r.clock.Now(), End: math.MaxInt64,
	})
	return len(r.ops) - 1
}

// Finish logs the response of the op returned by Begin.
func (r *Recorder) Finish(tok int, a Answer) {
	r.ops[tok].End = r.clock.Now()
	r.ops[tok].Answer = a
	r.ops[tok].Completed = true
}

// Ops returns the recorded operations (read after the thread stopped).
func (r *Recorder) Ops() []Op { return r.ops }

// Gather merges recorders into per-key subhistories.
func Gather(recs []*Recorder) map[uint64][]Op {
	out := make(map[uint64][]Op)
	for _, r := range recs {
		for _, op := range r.ops {
			out[op.Key] = append(out[op.Key], op)
		}
	}
	return out
}

// Truncate projects a per-key history onto a hypothetical crash at the
// given stamp: operations invoked after the crash never existed, and
// operations still running at the crash become pending (their eventual
// answer is unknowable at that instant). The crash-point enumerator
// (internal/dlcheck) uses it to re-read one recorded execution as a
// family of crashed executions, one per persist boundary.
func Truncate(ops []Op, stamp int64) []Op {
	out := make([]Op, 0, len(ops))
	for _, op := range ops {
		if op.Start > stamp {
			continue
		}
		if op.End > stamp {
			op.Completed = false
			op.Answer = Answer{}
			op.End = math.MaxInt64
		}
		out = append(out, op)
	}
	return out
}

// Violation describes a durable-linearizability failure for one key.
type Violation struct {
	Key     uint64
	Final   State // the key in the recovered structure
	Initial State
	Ops     []Op
}

// Error formats the violation with its full per-key history.
func (v *Violation) Error() string {
	s := fmt.Sprintf("key %d: no linearization explains recovered state %v (initial %v, %d ops)",
		v.Key, v.Final, v.Initial, len(v.Ops))
	for _, op := range v.Ops {
		s += "\n  " + op.String()
	}
	return s
}

// CheckKey decides whether some linearization of ops — consistent with
// the map's sequential semantics (step), the ops' interval order,
// completed answers, and optional inclusion of pending ops — leads from
// state init to state final. It is exact (no false positives or
// negatives) for up to 64 ops per key.
func CheckKey(ops []Op, init, final State) bool {
	if len(ops) > 64 {
		panic("hist: more than 64 ops on one key; shard the workload or shorten the run")
	}
	init, final = init.norm(), final.norm()
	var completedMask uint64
	for i, op := range ops {
		if op.Completed {
			completedMask |= 1 << i
		}
	}
	type state struct {
		mask uint64
		st   State
	}
	memo := make(map[state]bool) // visited (not result) memo
	var rec func(mask uint64, st State) bool
	rec = func(mask uint64, st State) bool {
		if mask&completedMask == completedMask && st == final {
			return true // pending leftovers simply never took effect
		}
		key := state{mask, st}
		if memo[key] {
			return false
		}
		memo[key] = true
		for i := 0; i < len(ops); i++ {
			bit := uint64(1) << i
			if mask&bit != 0 {
				continue
			}
			// Interval order: i may linearize next only if no other
			// remaining op already responded before i was invoked.
			ok := true
			for j := 0; j < len(ops); j++ {
				jb := uint64(1) << j
				if j == i || mask&jb != 0 {
					continue
				}
				if ops[j].End < ops[i].Start {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if next, ok := step(ops[i], st); ok && rec(mask|bit, next) {
				return true
			}
		}
		return false
	}
	return rec(0, init)
}

// Check verifies a whole multi-key history against the recovered state.
// initial maps the prefilled keys to their values; finalState maps the
// keys present after recovery to theirs. It returns nil, or the first
// violation found.
func Check(recs []*Recorder, initial, finalState map[uint64]uint64) *Violation {
	return CheckOps(Gather(recs), initial, finalState)
}

// CheckOps is Check over an already-gathered (and possibly Truncated)
// per-key history.
func CheckOps(perKey map[uint64][]Op, initial, finalState map[uint64]uint64) *Violation {
	// Keys only in initial/final still need checking (e.g. a prefilled key
	// nobody touched must survive).
	keys := make(map[uint64]bool)
	for k := range perKey {
		keys[k] = true
	}
	for k := range initial {
		keys[k] = true
	}
	for k := range finalState {
		keys[k] = true
	}
	for k := range keys {
		ops := perKey[k]
		init, final := StateOf(initial, k), StateOf(finalState, k)
		if !CheckKey(ops, init, final) {
			return &Violation{Key: k, Final: final, Initial: init, Ops: ops}
		}
	}
	return nil
}
