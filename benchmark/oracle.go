package main

import "flit/internal/core"

// oracle is the model the store is checked against: key index -> value, with
// 0 for "absent" (no operation ever stores 0). It is what a Go map would hold,
// kept as an array over the sliding window of indices that can be present:
// the one client owns every key, the workloads only ever insert the next
// fresh index and delete the oldest live one, and a map lookup per checked
// operation would cost ten seconds of a 100 M-op run.
type oracle struct {
	vals   []uint64 // vals[idx&mask] for idx in [lo, hi)
	mask   uint64
	lo, hi uint64 // every index outside [lo, hi) is absent
}

// newOracle models a store loaded with indices [0, records) -> index+1.
func newOracle(records int) *oracle {
	n := core.CeilPow2(2 * records)
	o := &oracle{vals: make([]uint64, n), mask: uint64(n - 1), hi: uint64(records)}
	for i := range records {
		o.vals[i] = uint64(i) + 1
	}
	return o
}

func (o *oracle) get(idx uint64) uint64 {
	if idx < o.lo || idx >= o.hi {
		return 0
	}
	return o.vals[idx&o.mask]
}

func (o *oracle) put(idx, val uint64) {
	if idx < o.lo {
		panic("oracle: put below the live window")
	}
	for o.hi <= idx {
		o.vals[o.hi&o.mask] = 0
		o.hi++
	}
	if o.hi-o.lo > uint64(len(o.vals)) {
		panic("oracle: live window outgrew the ring")
	}
	o.vals[idx&o.mask] = val
}

func (o *oracle) delete(idx uint64) {
	if idx < o.lo || idx >= o.hi {
		return
	}
	o.vals[idx&o.mask] = 0
	for o.lo < o.hi && o.vals[o.lo&o.mask] == 0 {
		o.lo++
	}
}

// live counts the keys present.
func (o *oracle) live() int {
	n := 0
	for i := o.lo; i < o.hi; i++ {
		if o.vals[i&o.mask] != 0 {
			n++
		}
	}
	return n
}

// each calls fn for every index in the window and for as many of the most
// recently deleted indices below it, with the value expected (0: absent).
func (o *oracle) each(fn func(idx, want uint64)) {
	for i := o.lo - min(o.lo, o.hi-o.lo); i < o.hi; i++ {
		fn(i, o.get(i))
	}
}

// apply checks one executed operation's result against the model and advances
// the model. It reports whether the result was the expected one.
func (o *oracle) apply(kind opKind, idx, val, gotVal uint64, gotOk bool) bool {
	have := o.get(idx)
	switch kind {
	case opGet:
		return gotOk == (have != 0) && gotVal == have
	case opPut:
		o.put(idx, val)
		return gotOk == (have == 0) // Put reports "newly inserted"
	default:
		o.delete(idx)
		return gotOk == (have != 0) // Delete reports "was present"
	}
}
