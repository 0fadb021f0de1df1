package pmem

import (
	"math/rand"
	"sync/atomic"
)

// CrashImage materializes the persistent state that would survive a power
// failure at this instant. All registered threads must be stopped (crashed
// or quiescent); their un-fenced write-back queues are consumed according
// to mode. That is also what lets it read the shadow without the per-line
// drainLocks: a drain contains no CheckCrash, so a crashed thread never
// stops mid-line or holding a lock. The returned slice is an independent
// copy safe to hand to NewFromImage.
//
// Under RandomSubset, two nondeterministic hardware effects are modeled
// with the seeded RNG: (1) each pending write-back independently may or may
// not have drained before the failure, and (2) each dirty line may have
// been evicted by the cache and persisted even though the program never
// flushed it. Both operate at whole-line granularity, as real caches do.
func (m *Memory) CrashImage(mode CrashMode, seed int64) []uint64 {
	img := make([]uint64, len(m.shadow))
	if mode == PersistAll {
		for i := range img {
			img[i] = atomic.LoadUint64(&m.words[i])
		}
		return img
	}
	copy(img, m.shadow)
	if mode == DropUnfenced {
		return img
	}
	rng := rand.New(rand.NewSource(seed))
	copyLine := func(l Line) {
		base := Addr(l) << LineShift
		for i := Addr(0); i < WordsPerLine; i++ {
			img[base+i] = atomic.LoadUint64(&m.words[base+i])
		}
	}
	// (1) pending write-backs race the failure. The queue is coalesced —
	// each distinct line appears once — so a line gets exactly one coin
	// flip and persists atomically or not at all; it can never be
	// materialized twice divergently.
	for _, t := range m.Threads() {
		for _, l := range t.wb.lines {
			if rng.Intn(2) == 0 {
				copyLine(l)
			}
		}
	}
	// (2) background evictions persist a random subset of dirty lines.
	lines := len(m.words) / WordsPerLine
	for l := 0; l < lines; l++ {
		base := l << LineShift
		dirty := false
		for i := 0; i < WordsPerLine; i++ {
			if atomic.LoadUint64(&m.words[base+i]) != img[base+i] {
				dirty = true
				break
			}
		}
		if dirty && rng.Intn(2) == 0 {
			copyLine(Line(l))
		}
	}
	return img
}

// DirtyLines counts lines whose volatile content differs from the
// persistent shadow (test helper). It may run beside live threads — each
// line is compared under its drainLock — but the count is then only a
// snapshot.
func (m *Memory) DirtyLines() int {
	n := 0
	lines := len(m.words) / WordsPerLine
	for l := 0; l < lines; l++ {
		base := l << LineShift
		m.lockLine(Line(l))
		for i := 0; i < WordsPerLine; i++ {
			if atomic.LoadUint64(&m.words[base+i]) != m.shadow[base+i] {
				n++
				break
			}
		}
		m.unlockLine(Line(l))
	}
	return n
}

// PersistedWord reads a word from the persistent shadow (test helper),
// under the line's drainLock so it may run beside fencing threads.
func (m *Memory) PersistedWord(a Addr) uint64 {
	l := LineOf(a)
	m.lockLine(l)
	v := m.shadow[a]
	m.unlockLine(l)
	return v
}

// VolatileWord reads a word from the volatile layer without a Thread
// (test and recovery helper).
func (m *Memory) VolatileWord(a Addr) uint64 {
	return atomic.LoadUint64(&m.words[a])
}

// SetVolatileWord overwrites a word in the volatile layer without a
// Thread and without instruction accounting. Test instrumentation only —
// the pheap free-poison hook uses it to stamp recycled blocks so a
// use-after-free dereference trips deterministically. The persistent
// shadow is untouched.
func (m *Memory) SetVolatileWord(a Addr, v uint64) {
	atomic.StoreUint64(&m.words[a], v)
}
