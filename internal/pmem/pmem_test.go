package pmem

import (
	"sync"
	"testing"
	"testing/quick"
)

func newMem(words int) *Memory {
	cfg := DefaultConfig(words)
	// Zero latency keeps unit tests fast; latency is benchmarked elsewhere.
	cfg.PWBCost, cfg.PFenceCost, cfg.PFenceEntryCost, cfg.MissCost = 0, 0, 0, 0
	return New(cfg)
}

func TestWordsRoundedToLines(t *testing.T) {
	m := New(Config{Words: 1})
	if m.Words() != WordsPerLine {
		t.Fatalf("Words() = %d, want %d", m.Words(), WordsPerLine)
	}
	m = New(Config{Words: WordsPerLine + 1})
	if m.Words() != 2*WordsPerLine {
		t.Fatalf("Words() = %d, want %d", m.Words(), 2*WordsPerLine)
	}
}

func TestVolatileSemantics(t *testing.T) {
	m := newMem(64)
	th := m.RegisterThread()

	th.Store(3, 42)
	if got := th.Load(3); got != 42 {
		t.Fatalf("Load(3) = %d, want 42", got)
	}
	if th.CAS(3, 41, 7) {
		t.Fatal("CAS with wrong expected value succeeded")
	}
	if !th.CAS(3, 42, 7) {
		t.Fatal("CAS with correct expected value failed")
	}
	if old := th.FAA(3, 5); old != 7 {
		t.Fatalf("FAA returned %d, want 7", old)
	}
	if got := th.Load(3); got != 12 {
		t.Fatalf("after FAA, Load(3) = %d, want 12", got)
	}
	if old := th.Exchange(3, 100); old != 12 {
		t.Fatalf("Exchange returned %d, want 12", old)
	}
	if got := th.Load(3); got != 100 {
		t.Fatalf("after Exchange, Load(3) = %d, want 100", got)
	}
}

func TestPWBWithoutFenceIsNotDurable(t *testing.T) {
	m := newMem(64)
	th := m.RegisterThread()
	th.Store(8, 1)
	th.PWB(8)
	img := m.CrashImage(DropUnfenced, 1)
	if img[8] != 0 {
		t.Fatal("un-fenced PWB reached the persistent image under DropUnfenced")
	}
	th.PFence()
	img = m.CrashImage(DropUnfenced, 1)
	if img[8] != 1 {
		t.Fatal("fenced PWB missing from the persistent image")
	}
}

// TestCrashedThreadDrainsNothing: once crash injection has killed a
// thread, its fence panics ErrCrashed and persists nothing, so cleanup
// running after the crash cannot write the dead thread's queue into the
// image the crash left.
func TestCrashedThreadDrainsNothing(t *testing.T) {
	m := newMem(64)
	th := m.RegisterThread()
	th.Store(8, 1)
	th.PWB(8)
	th.SetCrashAfter(0)
	if !RunToCrash(th.CheckCrash) {
		t.Fatal("armed crash did not fire")
	}
	for _, fence := range []func(){th.PFence, func() { th.Drain() }} {
		if !RunToCrash(fence) {
			t.Fatal("a crashed thread's fence returned")
		}
	}
	if img := m.CrashImage(DropUnfenced, 1); img[8] != 0 || th.Stats.PFences != 0 {
		t.Fatalf("a crashed thread's fence persisted %d and counted %d fences", img[8], th.Stats.PFences)
	}
}

func TestFenceDrainsLineGranularity(t *testing.T) {
	m := newMem(64)
	th := m.RegisterThread()
	// Two words on the same line; flushing either persists both.
	th.Store(8, 11)
	th.Store(9, 22)
	th.PWB(8)
	th.PFence()
	if m.PersistedWord(8) != 11 || m.PersistedWord(9) != 22 {
		t.Fatalf("line flush persisted (%d,%d), want (11,22)",
			m.PersistedWord(8), m.PersistedWord(9))
	}
}

func TestFenceTimeContentIsPersisted(t *testing.T) {
	// A write-back drains the line's content at fence time, so a store
	// between PWB and PFence is persisted too — and, crucially, the shadow
	// never regresses to a stale snapshot.
	m := newMem(64)
	th := m.RegisterThread()
	th.Store(8, 1)
	th.PWB(8)
	th.Store(8, 2)
	th.PFence()
	if m.PersistedWord(8) != 2 {
		t.Fatalf("persisted %d, want fence-time value 2", m.PersistedWord(8))
	}
}

func TestCrashImageModes(t *testing.T) {
	m := newMem(128)
	th := m.RegisterThread()
	th.Store(8, 5)  // dirty, never flushed
	th.Store(16, 6) // flushed + fenced
	th.PWB(16)
	th.PFence()
	th.Store(24, 7) // flushed, not fenced
	th.PWB(24)

	drop := m.CrashImage(DropUnfenced, 1)
	if drop[8] != 0 || drop[16] != 6 || drop[24] != 0 {
		t.Fatalf("DropUnfenced image = (%d,%d,%d), want (0,6,0)", drop[8], drop[16], drop[24])
	}
	all := m.CrashImage(PersistAll, 1)
	if all[8] != 5 || all[16] != 6 || all[24] != 7 {
		t.Fatalf("PersistAll image = (%d,%d,%d), want (5,6,7)", all[8], all[16], all[24])
	}
	// RandomSubset must yield, per word, either the fenced value or the
	// volatile value, and the fenced word must always survive.
	for seed := int64(0); seed < 32; seed++ {
		img := m.CrashImage(RandomSubset, seed)
		if img[16] != 6 {
			t.Fatalf("seed %d: fenced word lost", seed)
		}
		if img[8] != 0 && img[8] != 5 {
			t.Fatalf("seed %d: img[8]=%d not in {0,5}", seed, img[8])
		}
		if img[24] != 0 && img[24] != 7 {
			t.Fatalf("seed %d: img[24]=%d not in {0,7}", seed, img[24])
		}
	}
	// With 32 seeds, both outcomes for the pending line should appear.
	seen := map[uint64]bool{}
	for seed := int64(0); seed < 32; seed++ {
		seen[m.CrashImage(RandomSubset, seed)[24]] = true
	}
	if !seen[0] || !seen[7] {
		t.Fatalf("RandomSubset never varied pending line outcome: %v", seen)
	}
}

func TestNewFromImage(t *testing.T) {
	m := newMem(64)
	th := m.RegisterThread()
	th.Store(8, 9)
	th.PWB(8)
	th.PFence()
	img := m.CrashImage(DropUnfenced, 1)

	m2 := NewFromImage(img, m.Config())
	th2 := m2.RegisterThread()
	if got := th2.Load(8); got != 9 {
		t.Fatalf("recovered Load(8) = %d, want 9", got)
	}
	if m2.PersistedWord(8) != 9 {
		t.Fatal("recovered shadow missing persisted word")
	}
}

func TestCrashInjectionCountdown(t *testing.T) {
	m := newMem(64)
	th := m.RegisterThread()
	// A thread with no countdown never crashes.
	if RunToCrash(func() {
		for i := 0; i < 10; i++ {
			th.CheckCrash()
		}
	}) {
		t.Fatal("crashed without a countdown")
	}
	th.SetCrashAfter(2)
	steps := 0
	crashed := RunToCrash(func() {
		for i := 0; i < 10; i++ {
			th.CheckCrash()
			steps++
		}
	})
	if !crashed || steps != 2 {
		t.Fatalf("crashed=%v steps=%d, want true/2", crashed, steps)
	}
	// Countdown disarms itself after firing.
	if c := RunToCrash(func() { th.CheckCrash() }); c {
		t.Fatal("countdown fired twice")
	}
	// SetCrashAfter(-1) cancels a pending countdown.
	th.SetCrashAfter(1)
	th.SetCrashAfter(-1)
	if RunToCrash(func() {
		for i := 0; i < 10; i++ {
			th.CheckCrash()
		}
	}) {
		t.Fatal("crashed after the countdown was cancelled")
	}
}

func TestRunToCrashPropagatesOtherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic was swallowed")
		}
	}()
	RunToCrash(func() { panic("boom") })
}

func TestStatsCounting(t *testing.T) {
	m := newMem(64)
	th := m.RegisterThread()
	th.Store(8, 1)
	th.Load(8)
	th.CAS(8, 1, 2)
	th.FAA(8, 1)
	th.Exchange(8, 5)
	th.PWB(8)
	th.PWB(16)
	th.PFence()
	s := m.TotalStats()
	if s.Loads != 1 || s.Stores != 1 || s.RMWs != 3 || s.PWBs != 2 || s.PFences != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Drained != 2 {
		t.Fatalf("Drained = %d, want 2", s.Drained)
	}
	m.ResetStats()
	if s := m.TotalStats(); s.Loads != 0 || s.PWBs != 0 {
		t.Fatalf("ResetStats left %+v", s)
	}
}

func TestAdjacentDuplicatePWBSuppression(t *testing.T) {
	m := newMem(64)
	th := m.RegisterThread()
	th.Store(8, 1)
	th.PWB(8)
	th.PWB(9) // same line, back to back: queue should not grow
	if got := len(th.PendingLines()); got != 1 {
		t.Fatalf("pending = %d lines, want 1", got)
	}
	if th.Stats.PWBs != 2 {
		t.Fatalf("PWBs = %d, want 2 (suppression must not hide the count)", th.Stats.PWBs)
	}
}

func TestInvalidateOnPWBChargesOneMiss(t *testing.T) {
	cfg := DefaultConfig(64)
	cfg.PWBCost, cfg.PFenceCost, cfg.PFenceEntryCost, cfg.MissCost = 0, 0, 0, 0
	cfg.InvalidateOnPWB = true
	m := New(cfg)
	th := m.RegisterThread()
	th.Store(8, 1)
	th.PWB(8)
	th.Load(8) // first access after flush: miss
	th.Load(8) // second: hit
	if th.Stats.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", th.Stats.Misses)
	}
	th.PWB(8)
	th.Store(9, 2) // same line, store also pays the miss
	if th.Stats.Misses != 2 {
		t.Fatalf("Misses = %d, want 2", th.Stats.Misses)
	}
}

func TestDirtyLines(t *testing.T) {
	m := newMem(256)
	th := m.RegisterThread()
	if m.DirtyLines() != 0 {
		t.Fatal("fresh memory has dirty lines")
	}
	th.Store(8, 1)
	th.Store(64, 1)
	if m.DirtyLines() != 2 {
		t.Fatalf("DirtyLines = %d, want 2", m.DirtyLines())
	}
	th.PWB(8)
	th.PFence()
	if m.DirtyLines() != 1 {
		t.Fatalf("after flush, DirtyLines = %d, want 1", m.DirtyLines())
	}
}

// TestQuickVolatileMatchesReference runs random instruction sequences and
// checks the volatile layer behaves like a plain map of words.
func TestQuickVolatileMatchesReference(t *testing.T) {
	f := func(prog []uint16) bool {
		m := newMem(256)
		th := m.RegisterThread()
		ref := make(map[Addr]uint64)
		for i, ins := range prog {
			a := Addr(8 + ins%200)
			v := uint64(i + 1)
			switch ins % 5 {
			case 0:
				th.Store(a, v)
				ref[a] = v
			case 1:
				if th.Load(a) != ref[a] {
					return false
				}
			case 2:
				if th.CAS(a, ref[a], v) {
					ref[a] = v
				} else {
					return false // CAS with the true current value must succeed
				}
			case 3:
				if th.FAA(a, 3) != ref[a] {
					return false
				}
				ref[a] += 3
			case 4:
				if th.Exchange(a, v) != ref[a] {
					return false
				}
				ref[a] = v
			}
		}
		for a, v := range ref {
			if th.Load(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCrashImageSoundness: every word of every crash image equals
// either the last fenced value or some value the word actually held.
func TestQuickCrashImageSoundness(t *testing.T) {
	f := func(stores []uint8, seed int64) bool {
		m := newMem(128)
		th := m.RegisterThread()
		written := make(map[Addr]map[uint64]bool)
		note := func(a Addr, v uint64) {
			if written[a] == nil {
				written[a] = map[uint64]bool{0: true}
			}
			written[a][v] = true
		}
		for i, s := range stores {
			a := Addr(8 + s%100)
			v := uint64(i + 1)
			th.Store(a, v)
			note(a, v)
			switch s % 3 {
			case 1:
				th.PWB(a)
			case 2:
				th.PWB(a)
				th.PFence()
			}
		}
		for _, mode := range []CrashMode{DropUnfenced, RandomSubset, PersistAll} {
			img := m.CrashImage(mode, seed)
			for a, vals := range written {
				if !vals[img[a]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSmoke exercises the substrate under the race detector:
// threads hammer overlapping lines with stores, flushes and fences.
func TestConcurrentSmoke(t *testing.T) {
	m := newMem(1024)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		th := m.RegisterThread()
		wg.Add(1)
		go func(th *Thread, w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				a := Addr(8 + (i*7+w)%512)
				th.Store(a, uint64(w*1_000_000+i))
				th.PWB(a)
				if i%8 == 0 {
					th.PFence()
				}
				th.Load(Addr(8 + (i*13+w)%512))
				th.CAS(Addr(8+w), uint64(i), uint64(i+1))
				th.FAA(600, 1)
			}
			th.PFence()
		}(th, w)
	}
	wg.Wait()
	th := m.RegisterThread()
	if got := th.Load(600); got != workers*2000 {
		t.Fatalf("FAA total = %d, want %d", got, workers*2000)
	}
	// Every fenced word must match volatile now that all threads fenced
	// everything they flushed... only guaranteed for the FAA word if it was
	// flushed; just sanity-check the image machinery doesn't explode.
	img := m.CrashImage(RandomSubset, 42)
	if len(img) != m.Words() {
		t.Fatalf("image size %d, want %d", len(img), m.Words())
	}
}

// TestShadowNeverRegresses is the regression test for the drain-lock: a
// monotonically increasing word, flushed and fenced by racing threads,
// must never move backwards in the persistent shadow (hardware coherence
// serializes per-line write-backs; the simulator must too).
func TestShadowNeverRegresses(t *testing.T) {
	m := newMem(64)
	const a = Addr(8)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		th := m.RegisterThread()
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				th.FAA(a, 1)
				th.PWB(a)
				th.PFence()
			}
		}(th)
	}
	last := uint64(0)
	for i := 0; i < 200_000; i++ {
		v := m.PersistedWord(a)
		if v < last {
			close(stop)
			wg.Wait()
			t.Fatalf("shadow regressed: %d after %d", v, last)
		}
		last = v
	}
	close(stop)
	wg.Wait()
}
