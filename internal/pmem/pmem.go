// Package pmem simulates byte-addressable non-volatile memory with volatile
// caches, the substrate the FliT paper assumes (Intel Optane DC + Cascade
// Lake clwb/sfence in the original; a software model here).
//
// Memory is an array of 64-bit words grouped into cache lines of
// WordsPerLine words. All loads, stores and read-modify-write instructions
// operate on the volatile layer. A PWB ("persistent write-back", the
// paper's architecture-agnostic name for clwb/DC CVAP) enqueues the word's
// cache line into the issuing thread's write-back queue; a PFence drains
// that queue, copying the lines' current volatile contents into the
// persistent shadow. Upon a simulated crash the volatile layer is lost and
// the persistent image is materialized under a configurable CrashMode:
// lines that were written but never flushed+fenced may or may not have
// reached persistence (background cache evictions), exactly the hazard
// persistent algorithms must tolerate.
//
// Flush and fence latency is modeled with calibrated spin loops so that,
// as on real hardware, a PWB costs an order of magnitude more than a load
// and a PFence pays per distinct pending write-back (per-thread queues
// coalesce repeated flushes of one line, as cache coherence does). An
// optional virtual-clock mode (Config.VirtualClock) charges the same
// costs to a per-thread virtual-time counter instead of spinning, so
// runs that only need the modeled-cost ordering — crash tests, CI smoke
// matrices — skip the wall-clock burn entirely. Another optional mode
// reproduces the Cascade Lake clwb behaviour observed in the paper
// (§6.6): flushing a line also invalidates it, charging a miss penalty
// to the line's next access.
package pmem

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Addr is a word index into simulated persistent memory. Addr 0 is reserved
// and acts as the nil pointer for offset-based data structures.
type Addr uint64

// NilAddr is the reserved null address.
const NilAddr Addr = 0

const (
	// LineShift is log2 of WordsPerLine.
	LineShift = 3
	// WordsPerLine is the cache line size in 64-bit words (64 bytes).
	WordsPerLine = 1 << LineShift
	// lineMask isolates the word-within-line bits of an address.
	lineMask = WordsPerLine - 1
)

// Line identifies a cache line (an aligned group of WordsPerLine words).
type Line uint64

// LineOf returns the cache line containing address a.
func LineOf(a Addr) Line { return Line(a >> LineShift) }

// ErrCrashed is the panic value raised by crash injection. Worker
// goroutines run under RunToCrash (or their own recover) translate it into
// a clean stop; any other panic is re-raised.
var ErrCrashed = errors.New("pmem: simulated crash")

// CrashMode selects how un-fenced data behaves when a crash image is taken.
type CrashMode int

const (
	// DropUnfenced keeps only explicitly fenced write-backs: every line
	// that was dirty but not flushed+fenced is lost. The most adversarial
	// mode with respect to losing data.
	DropUnfenced CrashMode = iota
	// RandomSubset applies a random subset of pending write-backs and
	// additionally "evicts" (persists) a random subset of dirty lines,
	// modeling background cache evictions that persist data the program
	// never flushed. Whole lines persist atomically, as on hardware.
	RandomSubset
	// PersistAll persists the entire volatile state (eADR-like). Useful as
	// a control: every correct algorithm must also pass under it.
	PersistAll
)

func (m CrashMode) String() string {
	switch m {
	case DropUnfenced:
		return "drop-unfenced"
	case RandomSubset:
		return "random-subset"
	case PersistAll:
		return "persist-all"
	default:
		return fmt.Sprintf("CrashMode(%d)", int(m))
	}
}

// Config parameterizes a simulated memory.
type Config struct {
	// Words is the total number of 64-bit words (rounded up to a whole
	// number of cache lines). Word 0 is reserved as nil.
	Words int
	// PWBCost is the spin cost charged per PWB instruction.
	PWBCost int
	// PFenceCost is the base spin cost charged per PFence instruction.
	PFenceCost int
	// PFenceEntryCost is the additional spin cost per pending write-back
	// drained by a PFence.
	PFenceEntryCost int
	// VirtualClock, when true, accrues every latency cost to the issuing
	// thread's virtual-time counter (Thread.VirtualTime) instead of a
	// calibrated spin loop. Modeled-cost ordering is preserved — a run
	// that would spin longer accumulates more virtual time — but no
	// wall-clock CPU is burned, making latency-blind runs (crash tests,
	// CI smoke matrices) several times faster.
	VirtualClock bool
	// InvalidateOnPWB, when true, models the Cascade Lake clwb behaviour:
	// a PWB invalidates the line and the next access to it (by any thread)
	// pays MissCost. The paper attributes flit-adjacent's extra flushes in
	// Figure 9 to exactly this.
	InvalidateOnPWB bool
	// MissCost is the spin cost of the post-invalidation miss.
	MissCost int
}

// DefaultConfig returns a configuration whose latency ratios roughly track
// the paper's hardware: a flush is ~20-40x a cached load, and a fence on a
// non-empty write-back queue is more expensive still.
func DefaultConfig(words int) Config {
	return Config{
		Words:           words,
		PWBCost:         300,
		PFenceCost:      20, // an sfence with an empty write-back queue is nearly free
		PFenceEntryCost: 150,
		MissCost:        200,
	}
}

// Memory is a simulated persistent memory: a volatile word array backed by
// a persistent shadow. All instruction methods live on Thread; Memory
// carries the shared state and thread registry.
type Memory struct {
	cfg    Config
	words  []uint64 // volatile layer; accessed with sync/atomic
	shadow []uint64 // persistent layer; guarded per line by drainLock
	inval  []uint32 // per-line invalidation flags, nil unless configured

	// drainLock[l] guards shadow line l: its shadow words are written and
	// read only by the holder of drainLock[l], or while every thread is
	// stopped (CrashImage, NewFromImage). The lock is a CAS-acquired,
	// atomic-store-released spin word, so the shadow accesses inside it
	// are plain loads and stores. It is also what keeps the shadow
	// forward-only: on hardware, cache coherence gives each line a single
	// owner, so an older line value can never overwrite a newer one in
	// memory; here whichever of two racing fence drains takes the lock
	// second re-reads the volatile line.
	drainLock []uint32

	// trace, when non-nil, records every fence-drained line (see
	// StartTrace). Attached/detached only while quiescent, like SetCosts.
	trace *Trace

	mu      sync.Mutex
	threads []*Thread // nil entries are released slots awaiting reuse
	freeIDs []int     // released thread IDs, reused LIFO by RegisterThread

	// retired accumulates the statistics and virtual-time high-water mark
	// of released threads, so TotalStats and MaxVirtualTime keep counting
	// work done by sessions that have since closed.
	retired      Stats
	retiredVTime uint64
}

// New creates a simulated memory of cfg.Words words. The persistent shadow
// starts equal to the (all-zero) volatile layer.
func New(cfg Config) *Memory {
	if cfg.Words < WordsPerLine {
		cfg.Words = WordsPerLine
	}
	// Round up to whole lines so line copies never run off the end.
	cfg.Words = (cfg.Words + lineMask) &^ lineMask
	m := &Memory{
		cfg:       cfg,
		words:     make([]uint64, cfg.Words),
		shadow:    make([]uint64, cfg.Words),
		drainLock: make([]uint32, cfg.Words/WordsPerLine),
	}
	if cfg.InvalidateOnPWB {
		m.inval = make([]uint32, cfg.Words/WordsPerLine)
	}
	return m
}

// NewFromImage creates a memory whose volatile and persistent layers both
// start from a crash image, modeling post-crash recovery: the system
// reboots and sees exactly the persisted bytes.
func NewFromImage(img []uint64, cfg Config) *Memory {
	cfg.Words = len(img)
	m := New(cfg)
	copy(m.words, img)
	copy(m.shadow, img)
	return m
}

// Config returns the memory's configuration.
func (m *Memory) Config() Config { return m.cfg }

// lockLine acquires drainLock[l]. Critical sections are a line copy or
// shorter and never contain a CheckCrash, so a crashed thread cannot die
// holding one. A contended acquire yields instead of spinning: with more
// goroutines than processors the holder may be the one descheduled, and
// a shadow reader polling beside fencing threads would otherwise burn
// whole scheduler quanta waiting for it.
//
//flit:hotpath
func (m *Memory) lockLine(l Line) {
	for !atomic.CompareAndSwapUint32(&m.drainLock[l], 0, 1) {
		runtime.Gosched()
	}
}

// unlockLine releases drainLock[l], publishing the holder's shadow writes
// to the next holder.
//
//flit:hotpath
func (m *Memory) unlockLine(l Line) { atomic.StoreUint32(&m.drainLock[l], 0) }

// writeBack copies line l's current volatile words into the shadow and
// returns the shadow line. The caller holds drainLock[l].
//
//flit:hotpath
func (m *Memory) writeBack(l Line) []uint64 {
	base := int(l) << LineShift
	src := m.words[base : base+WordsPerLine]
	dst := m.shadow[base : base+WordsPerLine]
	for i := range dst {
		dst[i] = atomic.LoadUint64(&src[i])
	}
	return dst
}

// SetCosts adjusts the latency model. Benchmark harnesses zero the costs
// during prefill so setup is not charged, then restore them for the
// measured run. Callers must be quiescent: the fields are read without
// synchronization on the instruction hot path.
func (m *Memory) SetCosts(pwb, pfence, pfenceEntry, miss int) {
	m.cfg.PWBCost = pwb
	m.cfg.PFenceCost = pfence
	m.cfg.PFenceEntryCost = pfenceEntry
	m.cfg.MissCost = miss
}

// MaxVirtualTime returns the largest virtual-time counter across all
// registered threads — the modeled makespan of a virtual-clock run.
func (m *Memory) MaxVirtualTime() uint64 {
	m.mu.Lock()
	max := m.retiredVTime
	m.mu.Unlock()
	for _, t := range m.Threads() {
		if t.vtime > max {
			max = t.vtime
		}
	}
	return max
}

// Words returns the number of addressable words.
func (m *Memory) Words() int { return len(m.words) }

// RegisterThread allocates a Thread handle. Every goroutine issuing memory
// instructions must own a distinct Thread: write-back queues and statistics
// are thread-local, mirroring per-core store buffers. Slots released by
// Thread.Release are reused, so a churn of short-lived sessions keeps the
// registry bounded by the peak concurrent thread count.
func (m *Memory) RegisterThread() *Thread {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &Thread{M: m, crashIn: -1}
	if n := len(m.freeIDs); n > 0 {
		t.ID = m.freeIDs[n-1]
		m.freeIDs = m.freeIDs[:n-1]
		m.threads[t.ID] = t
	} else {
		t.ID = len(m.threads)
		m.threads = append(m.threads, t)
	}
	return t
}

// Threads returns all live (registered and not released) threads.
func (m *Memory) Threads() []*Thread {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Thread, 0, len(m.threads))
	for _, t := range m.threads {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Release returns the thread's registry slot for reuse by a future
// RegisterThread. Its statistics and virtual time are folded into the
// memory's retired accumulators, so TotalStats and MaxVirtualTime keep
// reporting the released thread's contribution. Any write-backs still
// pending in its queue are discarded — the same loss a crash at this
// point would inflict — so callers that need durability must fence
// before releasing. Release is idempotent; the thread must not issue
// instructions afterwards.
func (t *Thread) Release() {
	m := t.M
	m.mu.Lock()
	defer m.mu.Unlock()
	if t.ID >= len(m.threads) || m.threads[t.ID] != t {
		return
	}
	m.retired.Add(&t.Stats)
	if t.vtime > m.retiredVTime {
		m.retiredVTime = t.vtime
	}
	m.threads[t.ID] = nil
	m.freeIDs = append(m.freeIDs, t.ID)
}

// TotalStats sums the statistics of all live threads plus the retired
// contributions of released ones.
func (m *Memory) TotalStats() Stats {
	m.mu.Lock()
	s := m.retired
	m.mu.Unlock()
	for _, t := range m.Threads() {
		s.Add(&t.Stats)
	}
	return s
}

// ResetStats zeroes the statistics of all live threads and the retired
// accumulators. Callers must ensure no thread is concurrently issuing
// instructions.
func (m *Memory) ResetStats() {
	m.mu.Lock()
	m.retired = Stats{}
	m.retiredVTime = 0
	m.mu.Unlock()
	for _, t := range m.Threads() {
		t.Stats = Stats{}
		t.vtime = 0
	}
}

// RunToCrash invokes fn and converts an ErrCrashed panic into a normal
// return of true; any other panic propagates. It returns false if fn
// completed without crashing.
func RunToCrash(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if r == ErrCrashed {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	fn()
	return false
}
