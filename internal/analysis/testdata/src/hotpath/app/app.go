// Package app exercises hotpath: annotated functions must stay
// allocation-free.
package app

import (
	"fmt"
	"time"
)

type recorder struct {
	buckets [64]uint64
	labels  map[string]int
}

//flit:hotpath
func hotViolations(r *recorder, v uint64) string {
	start := time.Now()       // want "time.Now on a //flit:hotpath function"
	s := fmt.Sprintf("%d", v) // want "fmt.Sprintf allocates"
	for k := range r.labels { // want "map iteration on a //flit:hotpath function"
		s += k
	}
	f := func() uint64 { return v } // want "closure captures v"
	_ = f()
	var sink any = start // want "value converts to interface here"
	_ = sink
	return s
}

//flit:hotpath
func hotClean(r *recorder, v uint64) uint64 {
	i := int(v % 64)
	r.buckets[i] += v
	return r.buckets[i]
}

// coldPath is unannotated: the same constructs are fine here.
func coldPath(r *recorder, v uint64) string {
	defer func() { _ = recover() }()
	s := fmt.Sprintf("%d-%v", v, time.Now())
	for k := range r.labels {
		s += k
	}
	return s
}

// hotSuppressed documents a deliberate exception: the function-doc
// ignore suppresses hotpath for the whole body.
//
//flit:hotpath
//flitvet:ignore hotpath fixture: startup-only slow path kept annotated for visibility
func hotSuppressed(r *recorder) {
	_ = time.Now()
}

//flit:hotpath
func boxingInCall(v uint64) {
	sink(v) // want "value converts to interface here"
}

// pointerIntoInterface is the *bufio.Reader-into-io.Reader shape of the
// wire codec: a pointer sits in the interface word, nothing is boxed.
//
//flit:hotpath
func pointerIntoInterface(r *recorder) {
	sink(r)
}

// constantIntoInterface is the panic("…: key out of range") shape of the
// list's argument checks: a constant is boxed at compile time.
//
//flit:hotpath
func constantIntoInterface(v uint64) {
	if v == 0 {
		panic("app: zero")
	}
	sink("static")
}

func sink(x any) {}
