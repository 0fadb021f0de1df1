package main

import (
	"sync/atomic"

	"flit/internal/workload"
)

// mixKind names a workload's fixed operation pattern (see stream.fill).
type mixKind uint8

const (
	mixRead mixKind = iota
	mixWrite
	mixPutGet
)

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
)

// segment is one pre-generated slice of the op stream: the program under test
// only ever sees these arrays. Key i is keys[i*keyLen:(i+1)*keyLen].
type segment struct {
	kinds []opKind
	idx   []uint64 // key index, for the oracle
	vals  []uint64 // Put value
	keys  []byte
}

func newSegment(n int) *segment {
	return &segment{
		kinds: make([]opKind, n),
		idx:   make([]uint64, n),
		vals:  make([]uint64, n),
		keys:  make([]byte, 0, n*keyLen),
	}
}

func (s *segment) key(i int) []byte { return s.keys[i*keyLen : (i+1)*keyLen] }

// view returns a segment of the first n operations sharing s's arrays.
func (s *segment) view(n int) *segment {
	return &segment{kinds: s.kinds[:n], idx: s.idx[:n], vals: s.vals[:n], keys: s.keys[:0]}
}

// stream generates a workload's operations from the seed, one segment at a
// time and always outside the timed region. It carries the little state the
// mixes need: the live key window [del, ins) of emb_write and the value
// counter. digest covers every generated kind, key and value, so two runs can
// be shown to have executed the same inputs.
type stream struct {
	sp   *spec
	gen  *workload.Generator
	base uint64 // record count: values above it are the stream's own
	pos  uint64 // operations generated so far
	ins  uint64 // next fresh key index
	del  uint64 // oldest live key index
	hash uint64
}

func newStream(sp *spec, records int, seed int64) (*stream, error) {
	keysOnly, err := workload.MixByName("c") // key draws only; the kinds are fixed patterns below
	if err != nil {
		return nil, err
	}
	limit := new(atomic.Uint64)
	limit.Store(uint64(records))
	gen, err := workload.NewGenerator(keysOnly, sp.dist, 0, uint64(records), limit, 0, 0, seed)
	if err != nil {
		return nil, err
	}
	return &stream{sp: sp, gen: gen, base: uint64(records), ins: uint64(records), hash: fnvOffset}, nil
}

// fill overwrites seg with the next len(seg.kinds) operations.
//
// The kinds are fixed patterns, not draws, so every seed runs the same mix
// exactly and the per-op counts do not wander with the seed:
//
//	mixRead    Get
//	mixWrite   Put live, Put fresh, Put live, Delete oldest   (live keys stay = records)
//	mixPutGet  Put, Get
//
// A Put's value is its 1-based position in the stream plus the record count,
// so it is unique, non-zero and distinct from every loaded value.
func (st *stream) fill(seg *segment) {
	seg.keys = seg.keys[:0]
	for i := range seg.kinds {
		u := st.gen.Next().Key
		kind, idx := opGet, u
		switch st.sp.mix {
		case mixWrite:
			switch st.pos % 4 {
			case 0, 2:
				kind, idx = opPut, st.del+u
			case 1:
				kind, idx = opPut, st.ins
				st.ins++
			case 3:
				kind, idx = opDelete, st.del
				st.del++
			}
		case mixPutGet:
			if st.pos%2 == 0 {
				kind = opPut
			}
		}
		st.pos++
		val := uint64(0)
		if kind == opPut {
			val = st.base + st.pos
		}
		seg.kinds[i], seg.idx[i], seg.vals[i] = kind, idx, val
		seg.keys = workload.AppendKey(seg.keys, idx)
		st.hash = mix(mix(mix(st.hash, uint64(kind)), idx), val)
	}
}

// FNV-1a's constants, applied a word at a time: the digest only has to tell
// two streams apart, and a byte-wise hash would cost as much as an emb_read op.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, x uint64) uint64 { return (h ^ x) * fnvPrime }
