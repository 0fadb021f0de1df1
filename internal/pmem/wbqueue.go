package pmem

import "math/bits"

// wbQueue is a per-thread line-coalescing write-back queue: the set of
// cache lines PWBed since the last fence, each recorded exactly once in
// first-enqueue order. Hardware gives the same guarantee for free —
// coherence lets a line be dirty in at most one cache, so repeated clwb
// of the same line queues one write-back — and the simulator matches it:
// a fence drains each distinct line exactly once, no matter how many
// times (or in what interleaving) the thread flushed it.
//
// Membership is tracked by an open-addressed, epoch-stamped hash table:
// resetting the queue bumps the epoch instead of zeroing the slots, so
// a fence costs O(distinct lines) with no per-fence table clearing, and
// both the order buffer and the slot table are reused across fences.
// The queue allocates only when it grows past its high-water mark —
// steady-state PWB/PFence traffic is allocation-free.
type wbQueue struct {
	lines []Line   // distinct pending lines, first-enqueue order
	slots []wbSlot // open-addressed dedup table, power-of-two size
	shift uint     // 64 - log2(len(slots)): hash-to-index shift
	epoch uint32   // current generation; any other stamp marks a free slot
}

// wbSlot is one dedup-table entry; it is live only while its epoch
// matches the queue's.
type wbSlot struct {
	line  Line
	epoch uint32
}

// wbMinSlots is the initial dedup-table size (power of two). 64 slots
// cover 32 distinct pending lines before the first grow — larger than
// any fence window the instrumented policies produce in practice.
const wbMinSlots = 64

// init sizes the dedup table (n must be a power of two) and with it the
// order buffer — the table grows at half load, so n/2 lines fill it — so a
// queue growing to N lines allocates log N times, not twice. pmem sits below
// core in the import graph, so the sizing math is spelled out here
// rather than through core.Pow2Sizing.
func (q *wbQueue) init(n int) {
	q.slots = make([]wbSlot, n)
	q.lines = append(make([]Line, 0, n/2), q.lines...)
	q.shift = 64 - uint(bits.Len(uint(n-1)))
	q.epoch = 1
}

// hash spreads lines over slot indices (Fibonacci hashing; the top bits
// of the product are the well-mixed ones, so index by shifting, not
// masking).
//
//flit:hotpath
func (q *wbQueue) hash(l Line) uint {
	return uint((uint64(l) * 0x9E3779B97F4A7C15) >> q.shift)
}

// add enqueues l if it is not already pending and reports whether it was
// newly enqueued.
//
//flit:hotpath
func (q *wbQueue) add(l Line) bool {
	if q.slots == nil {
		q.init(wbMinSlots)
	}
	mask := uint(len(q.slots) - 1)
	for i := q.hash(l); ; i = (i + 1) & mask {
		s := &q.slots[i]
		if s.epoch != q.epoch { // free (stale or never used): claim it
			s.line, s.epoch = l, q.epoch
			q.lines = append(q.lines, l)
			if len(q.lines)*2 >= len(q.slots) {
				q.grow()
			}
			return true
		}
		if s.line == l { // already pending: coalesce
			return false
		}
	}
}

// has reports whether l is pending (flushed since the last fence).
//
//flit:hotpath
func (q *wbQueue) has(l Line) bool {
	if q.slots == nil || len(q.lines) == 0 {
		return false
	}
	mask := uint(len(q.slots) - 1)
	for i := q.hash(l); ; i = (i + 1) & mask {
		s := &q.slots[i]
		if s.epoch != q.epoch {
			return false
		}
		if s.line == l {
			return true
		}
	}
}

// grow doubles the dedup table, re-inserting the pending lines. The
// order buffer is untouched.
func (q *wbQueue) grow() {
	lines := q.lines
	q.init(2 * len(q.slots))
	mask := uint(len(q.slots) - 1)
	for _, l := range lines {
		for i := q.hash(l); ; i = (i + 1) & mask {
			if s := &q.slots[i]; s.epoch != q.epoch {
				s.line, s.epoch = l, q.epoch
				break
			}
		}
	}
}

// reset empties the queue in O(1): the order buffer is truncated for
// reuse and the epoch bump frees every slot at once. On the (once per
// 2^32 fences) epoch wrap the table is cleared eagerly, so stale slots
// from a previous life of the same epoch value can never alias.
func (q *wbQueue) reset() {
	q.lines = q.lines[:0]
	q.epoch++
	if q.epoch == 0 {
		for i := range q.slots {
			q.slots[i] = wbSlot{}
		}
		q.epoch = 1
	}
}
