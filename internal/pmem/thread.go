package pmem

import "sync/atomic"

// Stats counts the instructions a thread issued. Fields are written only by
// the owning thread; read them after the thread has stopped (or tolerate
// slightly stale values).
type Stats struct {
	Loads   uint64 // load instructions
	Stores  uint64 // store instructions
	RMWs    uint64 // CAS/FAA/Exchange instructions
	PWBs    uint64 // persistent write-backs issued
	PFences uint64 // fences issued: every PFence/Drain call, each draining the queue, empty or not
	Drained uint64 // pending write-backs drained by fences
	Misses  uint64 // post-invalidation misses charged (InvalidateOnPWB)

	// ElidedFences counts the dependency and group-commit fences a policy
	// proved empty (nothing pending on the thread) and did not issue; they
	// are not in PFences. PFences + ElidedFences is what Algorithm 4 (and
	// one fence per committed batch) asks for.
	ElidedFences uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o *Stats) {
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.RMWs += o.RMWs
	s.PWBs += o.PWBs
	s.PFences += o.PFences
	s.Drained += o.Drained
	s.ElidedFences += o.ElidedFences
	s.Misses += o.Misses
}

// Thread is a per-goroutine handle to the memory: it owns a write-back
// queue (the lines PWBed but not yet fenced), statistics, and crash
// injection state. A Thread must not be shared between goroutines.
type Thread struct {
	M     *Memory
	ID    int
	Stats Stats

	// wb holds the lines flushed since the last fence, coalesced so each
	// distinct line is pending at most once (as cache coherence
	// guarantees on hardware). A fence copies their then-current volatile
	// contents into the persistent shadow, matching hardware, where the
	// write-back reads the coherent line at drain time, not at clwb time.
	wb wbQueue

	// vtime accumulates modeled instruction latency when the memory runs
	// in virtual-clock mode (Config.VirtualClock); see charge.
	vtime uint64

	// crashIn, when >= 0, counts down instrumented instructions and
	// injects a crash when it reaches zero (deterministic crash points).
	crashIn int64

	// crashed is set (before the panic) when crash injection kills the
	// thread. Observers — the reclamation orphan rule — use it to tell a
	// handle whose owner provably unwound from one that is merely slow.
	crashed atomic.Bool
}

// charge applies a modeled latency cost: a calibrated spin by default,
// or — in virtual-clock mode — an addition to the thread's virtual-time
// counter, which preserves the relative cost ordering of runs without
// burning wall-clock CPU (crash tests and CI smoke runs never read a
// latency number, only the modeled ordering).
//
//flit:hotpath
func (t *Thread) charge(n int) {
	if n <= 0 {
		return
	}
	if t.M.cfg.VirtualClock {
		t.vtime += uint64(n)
		return
	}
	spin(n)
}

// VirtualTime returns the latency the thread has accumulated in
// virtual-clock mode (zero otherwise): the modeled time it would have
// spent spinning.
func (t *Thread) VirtualTime() uint64 { return t.vtime }

// SetCrashAfter arranges for the thread to crash (panic ErrCrashed) after n
// more CheckCrash calls. n < 0 disables the countdown.
func (t *Thread) SetCrashAfter(n int64) { t.crashIn = n }

// CheckCrash injects a crash when the thread's SetCrashAfter countdown
// expires; a thread with no countdown never crashes here. Instrumented
// instruction wrappers (internal/core) call it once per instruction, so
// crashes land between — never inside — atomic memory instructions, as on
// real hardware.
//
//flit:hotpath
func (t *Thread) CheckCrash() {
	if t.crashIn >= 0 {
		if t.crashIn == 0 {
			t.crashIn = -1
			t.crashed.Store(true)
			panic(ErrCrashed)
		}
		t.crashIn--
	}
}

// Crashed reports whether crash injection has killed this thread. Once
// set, the owning goroutine has unwound (the flag is stored immediately
// before the ErrCrashed panic) and the thread never issues another
// instruction.
func (t *Thread) Crashed() bool { return t.crashed.Load() }

// touch charges the post-invalidation miss if the line was flushed under
// InvalidateOnPWB and nobody has re-fetched it yet.
//
//flit:hotpath
func (t *Thread) touch(a Addr) {
	m := t.M
	if m.inval == nil {
		return
	}
	l := LineOf(a)
	if atomic.LoadUint32(&m.inval[l]) != 0 && atomic.SwapUint32(&m.inval[l], 0) != 0 {
		t.Stats.Misses++
		t.charge(m.cfg.MissCost)
	}
}

// Load atomically reads the volatile value at a.
//
//flit:hotpath
func (t *Thread) Load(a Addr) uint64 {
	t.touch(a)
	t.Stats.Loads++
	return atomic.LoadUint64(&t.M.words[a])
}

// Store atomically writes v to the volatile value at a.
//
//flit:hotpath
func (t *Thread) Store(a Addr, v uint64) {
	t.touch(a)
	t.Stats.Stores++
	atomic.StoreUint64(&t.M.words[a], v)
}

// CAS atomically compares-and-swaps the volatile value at a.
//
//flit:hotpath
func (t *Thread) CAS(a Addr, old, new uint64) bool {
	t.touch(a)
	t.Stats.RMWs++
	return atomic.CompareAndSwapUint64(&t.M.words[a], old, new)
}

// FAA atomically adds delta to the volatile value at a and returns the
// previous value.
//
//flit:hotpath
func (t *Thread) FAA(a Addr, delta uint64) uint64 {
	t.touch(a)
	t.Stats.RMWs++
	return atomic.AddUint64(&t.M.words[a], delta) - delta
}

// Exchange atomically swaps the volatile value at a with v and returns the
// previous value.
//
//flit:hotpath
func (t *Thread) Exchange(a Addr, v uint64) uint64 {
	t.touch(a)
	t.Stats.RMWs++
	return atomic.SwapUint64(&t.M.words[a], v)
}

// PWB issues a persistent write-back of the cache line containing a. The
// line is queued on the thread's write-back queue; it becomes persistent
// only once a subsequent PFence drains it (or if a crash-time eviction
// happens to persist it under CrashMode RandomSubset).
//
//flit:hotpath
func (t *Thread) PWB(a Addr) {
	t.Stats.PWBs++
	l := LineOf(a)
	// Coalesce: a line already pending stays queued once, as the cache
	// would keep a single dirty copy. The PWB count above still records
	// every issued instruction.
	t.wb.add(l)
	m := t.M
	if m.inval != nil {
		atomic.StoreUint32(&m.inval[l], 1)
	}
	t.charge(m.cfg.PWBCost)
}

// PFence drains the thread's write-back queue: every distinct pending
// line's current volatile content is copied into the persistent shadow
// under the line's drainLock — each line exactly once, however many PWBs
// targeted it. After PFence returns, everything the thread flushed is
// durable.
func (t *Thread) PFence() { t.drain() }

// Drain is the explicit batch-drain entry point for group commit: one
// fence (counted as a PFence) that persists every line flushed since the
// last fence, coalesced, and reports how many distinct lines it drained —
// the amortization a batching server wants to observe per committed
// batch. Semantically identical to PFence.
func (t *Thread) Drain() int { return t.drain() }

// LinePending reports whether the cache line containing a was flushed
// since the thread's last fence and is still awaiting its drain. Software
// that tracks its own flush window (the deferred batch skeleton in
// internal/core) uses it to elide PWB instructions that hardware would
// coalesce anyway: a pending line drains once, with its final contents,
// at the next fence.
func (t *Thread) LinePending(a Addr) bool { return t.wb.has(LineOf(a)) }

// Pending reports how many distinct lines the thread has flushed since
// its last fence — what a PFence issued now would drain. Zero means a
// fence would order nothing: the policies use it to skip a dependency
// fence with no dependencies (core.fenceDeps).
//
//flit:hotpath
func (t *Thread) Pending() int { return len(t.wb.lines) }

// drain is the one write-back path: each pending line is written back
// under its drainLock (see Memory.drainLock for what the lock guards and
// why it keeps the shadow forward-only). A thread a crash killed drains
// nothing: its fence panics ErrCrashed, so cleanup code running after
// the crash (a session's Close) cannot persist what the crash dropped.
//
//flit:hotpath
func (t *Thread) drain() int {
	if t.crashed.Load() {
		panic(ErrCrashed)
	}
	t.Stats.PFences++
	m := t.M
	n := len(t.wb.lines)
	if n == 0 {
		// An empty fence is counted and charged like any other, but it
		// drains nothing, and an empty queue has nothing to reset.
		t.charge(m.cfg.PFenceCost)
		return 0
	}
	tr := m.trace
	for _, l := range t.wb.lines {
		m.lockLine(l)
		if tr != nil {
			tr.drain(t, l)
		} else {
			m.writeBack(l)
		}
		m.unlockLine(l)
	}
	t.wb.reset()
	t.Stats.Drained += uint64(n)
	t.charge(m.cfg.PFenceCost + n*m.cfg.PFenceEntryCost)
	return n
}

// PendingLines returns a copy of the thread's un-fenced write-back
// queue: the distinct pending lines in first-enqueue order (test and
// crash-image helper).
func (t *Thread) PendingLines() []Line {
	return append([]Line(nil), t.wb.lines...)
}
