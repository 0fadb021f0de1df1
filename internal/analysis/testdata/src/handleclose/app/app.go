// Package app exercises handleclose: acquisitions must reach their
// release on every path out of the function.
package app

import (
	"errors"

	"flit/internal/analysis/testdata/src/handleclose/internal/dstruct"
	"flit/internal/analysis/testdata/src/handleclose/internal/pheap"
	"flit/internal/analysis/testdata/src/handleclose/internal/pmem"
	"flit/internal/analysis/testdata/src/handleclose/internal/reclaim"
)

var errBoom = errors.New("boom")

type session struct {
	t  *pmem.Thread
	ar *pheap.Arena
}

// deferRelease is the canonical good shape.
func deferRelease(m *pmem.Memory) uint64 {
	t := m.RegisterThread()
	defer t.Release()
	return t.Work()
}

// releaseAllPaths releases on both branches.
func releaseAllPaths(m *pmem.Memory, fail bool) error {
	t := m.RegisterThread()
	if fail {
		t.Release()
		return errBoom
	}
	t.Release()
	return nil
}

// storedInStruct escapes: ownership moves to the session (the
// newSessionCore shape), released elsewhere.
func storedInStruct(m *pmem.Memory, h *pheap.Heap) *session {
	t := m.RegisterThread()
	ar := h.NewArena()
	return &session{t: t, ar: ar}
}

// passedAlong escapes: ownership transferred to the callee.
func passedAlong(m *pmem.Memory) {
	t := m.RegisterThread()
	consume(t)
}

func consume(t *pmem.Thread) { t.Release() }

// earlyReturnLeak is the PR 9 bug class: the error path forgets the
// handle.
func earlyReturnLeak(m *pmem.Memory, fail bool) error {
	t := m.RegisterThread()
	if fail {
		return errBoom // want "function returns without releasing pmem thread"
	}
	t.Release()
	return nil
}

// missedBranchLeak releases on one branch only.
func missedBranchLeak(h *pheap.Heap, big bool) int {
	ar := h.NewArena()
	if big {
		n := ar.Alloc(64)
		ar.Release()
		return n
	}
	return 0 // want "function returns without releasing heap arena"
}

// panicLeak leaks on an explicit panic with no deferred release.
func panicLeak(d *reclaim.Domain, bad bool) {
	h := d.NewHandleOwned()
	if bad {
		panic("bad") // want "function panics without releasing reclamation handle"
	}
	h.Close()
}

// neverReleased falls off the end still holding the handle.
func neverReleased(m *pmem.Memory) { // fixture body below leaks
	t := m.RegisterThread() // want "pmem thread acquired here is never released"
	_ = t.Work()
}

// suppressedLeak documents an intentional leak (process-lifetime
// handle).
func suppressedLeak(m *pmem.Memory) {
	t := m.RegisterThread() //flitvet:ignore handleclose fixture: process-lifetime handle
	_ = t.Work()
}

// deferredClosure releases inside a deferred literal.
func deferredClosure(m *pmem.Memory) uint64 {
	t := m.RegisterThread()
	defer func() {
		t.Release()
	}()
	return t.Work()
}

// anchored is the structure constructors' shape: a context opened for the
// construction and closed before returning.
func anchored(cfg dstruct.Config) {
	c := cfg.Open()
	c.Close()
}

// prefillLeak is the bench/crashtest leak: a Set handle that is never
// closed keeps its pmem thread, arena and reclamation slot.
func prefillLeak(s dstruct.Set) {
	th := s.NewThread() // want "structure thread handle acquired here is never released"
	th.Insert(1, 1)
}

// openLeak forgets the context on the early return.
func openLeak(cfg dstruct.Config, skip bool) {
	c := cfg.Open()
	if skip {
		return // want "function returns without releasing structure thread handle"
	}
	c.Close()
}
