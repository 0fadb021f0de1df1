package pmem

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestDrainMatchesModel drives a seeded single-thread stream of
// Store/PWB/PFence over a few dozen lines against a map model of the
// persistence rule — a fence persists the fence-time content of every
// distinct flushed line, in first-flush order — and checks after every
// fence that CrashImage(DropUnfenced), PersistedWord and (when traced) the
// trace records all agree with it. Both drain branches go through the one
// writeBack, so the traced and untraced runs must be indistinguishable.
func TestDrainMatchesModel(t *testing.T) {
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		t.Run(name, func(t *testing.T) {
			const lines = 40
			m := newMem(lines * WordsPerLine)
			th := m.RegisterThread()
			var tr *Trace
			if traced {
				tr = m.StartTrace(testClock())
				defer m.StopTrace()
			}

			rng := rand.New(rand.NewSource(17))
			volatile := make([]uint64, m.Words())
			persisted := make([]uint64, m.Words())
			var pending []Line // distinct, first-flush order
			var want []PersistRecord
			fences, checked := 0, 0

			steps := 20_000
			if testing.Short() {
				steps = 5_000
			}
			for step := 0; step < steps; step++ {
				switch r := rng.Intn(10); {
				case r < 5:
					a := Addr(1 + rng.Intn(m.Words()-1))
					v := rng.Uint64()
					th.Store(a, v)
					volatile[a] = v
				case r < 9:
					a := Addr(rng.Intn(m.Words()))
					th.PWB(a)
					if l := LineOf(a); !slices.Contains(pending, l) {
						pending = append(pending, l)
					}
				default:
					epoch := th.wb.epoch // one fence, one (Thread, Epoch)
					if got := th.Drain(); got != len(pending) {
						t.Fatalf("step %d: fence drained %d lines, model has %d pending", step, got, len(pending))
					}
					fences++
					for _, l := range pending {
						base := int(l) << LineShift
						copy(persisted[base:base+WordsPerLine], volatile[base:base+WordsPerLine])
						rec := PersistRecord{Thread: th.ID, Epoch: epoch, Line: l}
						copy(rec.Words[:], volatile[base:])
						want = append(want, rec)
					}
					pending = pending[:0]

					img := m.CrashImage(DropUnfenced, 0)
					for a := range persisted {
						if img[a] != persisted[a] {
							t.Fatalf("step %d: image word %d = %d, model %d", step, a, img[a], persisted[a])
						}
						if got := m.PersistedWord(Addr(a)); got != persisted[a] {
							t.Fatalf("step %d: PersistedWord(%d) = %d, model %d", step, a, got, persisted[a])
						}
					}
					if tr == nil {
						continue
					}
					recs := tr.Records()
					if len(recs) != len(want) {
						t.Fatalf("step %d: %d trace records, model %d", step, len(recs), len(want))
					}
					// Earlier records were checked after their own fence.
					for i := checked; i < len(want); i++ {
						g, w := recs[i], want[i]
						if g.Thread != w.Thread || g.Epoch != w.Epoch || g.Line != w.Line || g.Words != w.Words {
							t.Fatalf("step %d: record %d = %+v, model %+v", step, i, g, w)
						}
						if i > 0 && g.Stamp <= recs[i-1].Stamp {
							t.Fatalf("step %d: record %d stamp %d not after %d", step, i, g.Stamp, recs[i-1].Stamp)
						}
					}
					checked = len(want)
				}
			}
			if fences < steps/20 {
				t.Fatalf("stream only fenced %d times", fences)
			}
		})
	}
}

// TestPersistedWordBesideDrains polls the shadow readers while four
// threads fence shared lines: every word only moves forward, and the
// plain shadow accesses on both sides are ordered by the line locks
// (the test is the -race witness for the "guarded by drainLock" rule).
func TestPersistedWordBesideDrains(t *testing.T) {
	m := newMem(8 * WordsPerLine)
	addrs := []Addr{8, 9, 15, 16, 23, 24} // three lines, first/last words
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		th := m.RegisterThread()
		wg.Add(1)
		go func(th *Thread, w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					th.PFence()
					return
				default:
				}
				a := addrs[i%len(addrs)]
				th.FAA(a, 1)
				th.PWB(a)
				if i%3 == 0 { // fences of one and of several lines
					th.PFence()
				}
			}
		}(th, w)
	}
	last := make([]uint64, len(addrs))
	rounds := 50_000
	if testing.Short() {
		rounds = 10_000
	}
	for i := 0; i < rounds && !t.Failed(); i++ {
		for j, a := range addrs {
			v := m.PersistedWord(a)
			if v < last[j] {
				t.Errorf("shadow word %d regressed: %d after %d", a, v, last[j])
			}
			last[j] = v
		}
		if i%1000 == 0 {
			m.DirtyLines()
		}
	}
	close(stop)
	wg.Wait()
	// Every writer fenced its last flush on the way out.
	for _, a := range addrs {
		if p, v := m.PersistedWord(a), m.VolatileWord(a); p != v {
			t.Errorf("word %d: persisted %d, volatile %d after the final fences", a, p, v)
		}
	}
	if d := m.DirtyLines(); d != 0 {
		t.Errorf("DirtyLines = %d after the final fences", d)
	}
}

// TestDrainZeroAlloc pins the steady-state write-back path: a flush and
// its fence allocate nothing once the queue has reached its high-water
// mark.
func TestDrainZeroAlloc(t *testing.T) {
	m := newMem(64 * WordsPerLine)
	th := m.RegisterThread()
	i := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		a := Addr(8 + i%56*WordsPerLine)
		th.Store(a, i)
		th.PWB(a)
		th.PWB(a + WordsPerLine)
		th.PFence()
		th.PFence() // empty queue
		i++
	}); n != 0 {
		t.Fatalf("PWB+PFence allocates %v per run at steady state", n)
	}
}

// BenchmarkPWBFence is the write path's persistence pair at zero modeled
// cost: one store, its flush, and the fence that drains the one line.
func BenchmarkPWBFence(b *testing.B) {
	m := newMem(1 << 12)
	th := m.RegisterThread()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := Addr(8 + (i&255)*WordsPerLine)
		th.Store(a, uint64(i))
		th.PWB(a)
		th.PFence()
	}
}

// BenchmarkEmptyFence is a fence with nothing to drain — three of the five
// fences of a store-path write find the queue empty.
func BenchmarkEmptyFence(b *testing.B) {
	m := newMem(1 << 12)
	th := m.RegisterThread()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.PFence()
	}
}
