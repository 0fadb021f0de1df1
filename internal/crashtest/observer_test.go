package crashtest

import (
	"fmt"
	"slices"
	"testing"

	"flit/internal/core"
	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/dstruct/queue"
	"flit/internal/hist"
	"flit/internal/pheap"
	"flit/internal/pmem"
)

// The batteries in this file are the deterministic, single-goroutine form
// of races the enumerated batteries only hit by schedule luck: a writer
// is frozen between making a p-CAS visible and persisting it — the window
// a preempted goroutine leaves open for as long as the scheduler likes —
// and other threads then run complete operations on top of what they can
// see. Those responses are acknowledged, so a crash right after them must
// recover a state that agrees with them; the frozen writer's own
// operation stays pending, free to take effect or vanish.

// stallFliT is FliT (hashed counters) whose p-CAS can freeze its thread
// right after the new value became visible: the location stays tagged and
// un-flushed, exactly what a stalled writer leaves behind. Crash
// countdowns (pmem.Thread.SetCrashAfter) cannot land there — they fire
// between policy instructions, never inside one.
type stallFliT struct {
	*core.FliT
	// stallIn counts successful p-CASes until the freeze (< 0: never).
	// Shared by every handle on the structure; the test is sequential.
	stallIn *int
}

func newStallFliT(stallIn int) stallFliT {
	return stallFliT{core.NewFliT(core.NewHashTable(1 << 14)), &stallIn}
}

func (p stallFliT) CAS(t *pmem.Thread, a pmem.Addr, old, new uint64, pflag bool) bool {
	if !pflag || *p.stallIn < 0 {
		return p.FliT.CAS(t, a, old, new, pflag)
	}
	t.CheckCrash()
	t.PFence()
	p.C.Inc(t, a)
	if !t.CAS(a, old, new) {
		p.C.Dec(t, a)
		if p.C.Tagged(t, a) {
			t.PWB(a)
		}
		return false
	}
	*p.stallIn--
	if *p.stallIn < 0 {
		panic(pmem.ErrCrashed)
	}
	t.PWB(a)
	t.PFence()
	p.C.Dec(t, a)
	return true
}

// recoverOnto returns cfg rebound to a heap recovered from cfg's current
// DropUnfenced crash image.
func recoverOnto(cfg dstruct.Config) dstruct.Config {
	img := cfg.Heap.Mem().CrashImage(pmem.DropUnfenced, 0)
	cfg2 := cfg
	cfg2.Heap = pheap.Recover(pmem.NewFromImage(img, cfg.Heap.Mem().Config()), cfg.Heap.Watermark())
	return cfg2
}

// applySet runs one checker operation on a set handle; an Insert writes
// val.
func applySet(th dstruct.SetThread, kind hist.Kind, key, val uint64) hist.Answer {
	var res [1]hist.Answer
	dlcheck.SetExecutor{Th: th}.ExecBatch([]dlcheck.BatchOp{{Kind: kind, Key: key, Val: val}}, res[:])
	return res[0]
}

// TestObserverPersistsWhatItSaw freezes a Delete or an Insert after each
// of its p-CASes in turn, then lets a second thread run one complete
// operation on the same key. An observed "absent" may not resurrect and an
// observed "present" may not vanish. The optimized durability modes
// traverse with v-loads, so the flush of the mark (or link) an answer
// rests on has to be spelled out at each return.
func TestObserverPersistsWhatItSaw(t *testing.T) {
	const key = 5
	for _, target := range Targets() {
		if target.Name == "lockmap" {
			continue // a writer frozen inside its critical section blocks every observer
		}
		for _, mode := range dstruct.Modes {
			for _, writer := range []hist.Kind{hist.Delete, hist.Insert} {
				for _, observer := range []hist.Kind{hist.Contains, hist.Insert, hist.Delete} {
					name := fmt.Sprintf("%s/%s/%s-then-%s", target.Name, mode, writer, observer)
					t.Run(name, func(t *testing.T) {
						for stallAt := 0; ; stallAt++ {
							pol := newStallFliT(-1)
							cfg := dlcheck.NewConfig(pol, mode)
							inst := target.New(cfg)
							// The writer toggles the key: a Delete finds it
							// prefilled, an Insert finds it missing.
							initial := map[uint64]uint64{}
							setup := inst.Set.NewThread()
							for k := uint64(0); k < 10; k++ {
								if k != key || writer == hist.Delete {
									setup.Insert(k, k+100)
									initial[k] = k + 100
								}
							}
							clock := &hist.Clock{}
							wrec, orec := hist.NewRecorder(clock), hist.NewRecorder(clock)
							w := inst.Set.NewThread()
							wrec.Begin(writer, key, 7)
							*pol.stallIn = stallAt
							if !pmem.RunToCrash(func() { applySet(w, writer, key, 7) }) {
								return // stallAt is past the operation's last p-CAS
							}
							tok := orec.Begin(observer, key, 8)
							orec.Finish(tok, applySet(inst.Set.NewThread(), observer, key, 8))

							final := target.Recover(recoverOnto(cfg)).Snapshot()
							if v := hist.Check([]*hist.Recorder{wrec, orec}, initial, final); v != nil {
								t.Fatalf("writer frozen after p-CAS %d, observer answered %v: %v",
									stallAt, orec.Ops()[0].Ok, v)
							}
						}
					})
				}
			}
		}
	}
}

// setOp is one checker operation of a frozen-writer scenario.
type setOp struct {
	kind hist.Kind
	key  uint64
}

// frozenScenario prefills keys 1–9 except absent, freezes each writer in
// turn after its stallAt[i]-th successful p-CAS, runs the observers to
// completion on top of what the frozen writers left visible, crashes, and
// checks the recovered state against the recorded history. ok is false if
// a writer completed without reaching its freeze.
func frozenScenario(target Target, mode dstruct.Mode, absent []uint64, writers []setOp, stallAt []int, observers []setOp) (v *hist.Violation, ok bool) {
	pol := newStallFliT(-1)
	cfg := dlcheck.NewConfig(pol, mode)
	inst := target.New(cfg)
	initial := map[uint64]uint64{}
	setup := inst.Set.NewThread()
	for k := uint64(1); k < 10; k++ {
		if !slices.Contains(absent, k) {
			setup.Insert(k, k+100)
			initial[k] = k + 100
		}
	}
	clock := &hist.Clock{}
	var recs []*hist.Recorder
	for i, w := range writers {
		rec := hist.NewRecorder(clock)
		recs = append(recs, rec)
		rec.Begin(w.kind, w.key, 7)
		*pol.stallIn = stallAt[i]
		if !pmem.RunToCrash(func() { applySet(inst.Set.NewThread(), w.kind, w.key, 7) }) {
			return nil, false
		}
	}
	for _, o := range observers {
		rec := hist.NewRecorder(clock)
		recs = append(recs, rec)
		tok := rec.Begin(o.kind, o.key, 8)
		rec.Finish(tok, applySet(inst.Set.NewThread(), o.kind, o.key, 8))
	}
	return hist.Check(recs, initial, target.Recover(recoverOnto(cfg)).Snapshot()), true
}

// forEachFrozenCell runs body on every lock-free target × durability mode
// (a writer frozen inside the lock map's critical section blocks every
// observer).
func forEachFrozenCell(t *testing.T, body func(t *testing.T, target Target, mode dstruct.Mode)) {
	for _, target := range Targets() {
		if target.Name == "lockmap" {
			continue
		}
		for _, mode := range dstruct.Modes {
			t.Run(target.Name+"/"+mode.String(), func(t *testing.T) { body(t, target, mode) })
		}
	}
}

// TestInsertBehindPendingPredecessor: Insert(5) is frozen with its link in
// node 4 visible but unpersisted, and a second thread completes Insert(6)
// behind node 5. The acknowledged key 6 hangs off node 5, so it survives a
// crash only if the link *into* node 5 does: an insert's linking CAS rests
// on the link through which its predecessor was reached, not just on the
// one it swings.
func TestInsertBehindPendingPredecessor(t *testing.T) {
	forEachFrozenCell(t, func(t *testing.T, target Target, mode dstruct.Mode) {
		v, ok := frozenScenario(target, mode, []uint64{5, 6},
			[]setOp{{hist.Insert, 5}}, []int{0},
			[]setOp{{hist.Insert, 6}})
		if !ok {
			t.Fatal("Insert(5) completed without a p-CAS to freeze at")
		}
		if v != nil {
			t.Fatalf("Insert(6) acknowledged behind the pending node 5: %v", v)
		}
	})
}

// TestHelpedUnlinkRestsOnTheMark: an Insert(0) is frozen with its link at
// the front of the chain visible but unpersisted, then a Delete(1) is
// frozen after each of its p-CASes in turn — in particular with its mark
// visible but unpersisted. A second Delete(1) helps unlink the marked
// node with a p-CAS of its own and answers false, and a Contains(1)
// answers false off that unlink too. The unlink sits in the pending node
// 0, so a crash loses it together with the link into that node; what
// survives is the old path to node 1, and only a persisted mark keeps the
// key absent. A helper therefore has to persist the mark it read with a
// v-load before it unlinks on the strength of it.
func TestHelpedUnlinkRestsOnTheMark(t *testing.T) {
	forEachFrozenCell(t, func(t *testing.T, target Target, mode dstruct.Mode) {
		for stallAt := 0; ; stallAt++ {
			v, ok := frozenScenario(target, mode, nil,
				[]setOp{{hist.Insert, 0}, {hist.Delete, 1}}, []int{0, stallAt},
				[]setOp{{hist.Delete, 1}, {hist.Contains, 1}})
			if !ok {
				return // stallAt is past the Delete's last p-CAS
			}
			if v != nil {
				t.Fatalf("Delete(1) frozen after p-CAS %d, then Delete(1) and Contains(1) answered absent: %v", stallAt, v)
			}
		}
	})
}

// TestQueueVolatileEndsTrailDurableState: the queue's head and tail live
// in volatile memory and later operations trust them without re-reading
// the marks and links they stand for, so neither may move past state that
// is not durable yet. A first dequeuer (or enqueuer) is frozen with its
// mark (or link) visible but unpersisted; a second is frozen at every
// instruction boundary of helping past it; a third then runs one complete
// operation. A crash right after must recover a FIFO-explainable queue: a
// completed dequeue's element may not be outlived by an older one, and a
// completed enqueue may not dangle behind a link that was lost.
func TestQueueVolatileEndsTrailDurableState(t *testing.T) {
	for _, dequeue := range []bool{true, false} {
		for helperCrash := int64(1); helperCrash <= 40; helperCrash++ {
			pol := newStallFliT(-1)
			cfg := dlcheck.NewConfig(pol, dstruct.Manual)
			q := queue.New(cfg)
			setup := q.NewThread()
			for v := uint64(1); v <= 3; v++ {
				setup.Enqueue(v)
			}
			op := func(th *queue.Thread, v uint64) (uint64, bool) {
				if dequeue {
					return th.Dequeue()
				}
				th.Enqueue(v)
				return v, true
			}
			*pol.stallIn = 0
			if !pmem.RunToCrash(func() { op(q.NewThread(), 10) }) {
				t.Fatal("first operation completed without a p-CAS to freeze at")
			}
			helper := q.NewThread()
			helper.Ctx().T.SetCrashAfter(helperCrash)
			pmem.RunToCrash(func() { op(helper, 11) })
			took, _ := op(q.NewThread(), 12)

			rec := queue.Recover(recoverOnto(cfg)).Snapshot()
			if dequeue {
				for _, v := range rec {
					if v < took {
						t.Fatalf("helper frozen at instruction %d: completed dequeue took %d, recovery kept older %d (contents %v)",
							helperCrash, took, v, rec)
					}
				}
			} else if len(rec) == 0 || rec[len(rec)-1] != 12 {
				t.Fatalf("helper frozen at instruction %d: completed enqueue of 12 lost, recovered %v", helperCrash, rec)
			}
		}
	}
}
