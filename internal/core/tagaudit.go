package core

import "sync/atomic"

// TagAuditor is the optional counter-read hook a CounterScheme can expose
// for verification harnesses: LiveTags sums the scheme's counters, i.e.
// the number of p-stores currently tagged as pending. The
// durable-linearizability checker (internal/dlcheck) uses it as a
// recovery oracle — at quiescence every tag must have been decremented
// back to zero, so a non-zero sum means the flit protocol leaked a tag
// (an Inc without its Dec) and the base crash image cannot be trusted.
//
// Reads are atomic but the sum is only meaningful while no thread is
// mid-instruction; call it at quiescent points.
type TagAuditor interface {
	// LiveTags returns the sum of all counters.
	LiveTags() int
}

// LiveTags sums the hashed counters.
func (h *HashTable) LiveTags() int {
	n := uint64(0)
	for i := range h.counters {
		n += atomic.LoadUint64(&h.counters[i])
	}
	return int(n)
}

// LiveTags sums the packed byte counters.
func (h *PackedHashTable) LiveTags() int {
	n := uint64(0)
	for i := range h.words {
		w := atomic.LoadUint64(&h.words[i])
		for sh := uint(0); sh < 64; sh += 8 {
			n += (w >> sh) & 0xFF
		}
	}
	return int(n)
}

// LiveTags sums the per-line counters.
func (d *DirectMap) LiveTags() int {
	n := uint64(0)
	for i := range d.counters {
		n += atomic.LoadUint64(&d.counters[i])
	}
	return int(n)
}

// LiveTagCount reports the live flit-tag count of a policy's counter
// scheme, when the policy has one that can be enumerated (the Adjacent
// scheme scatters its counters through the persistent heap, so it cannot).
// ok is false when the policy exposes no auditable counters.
func LiveTagCount(p Policy) (n int, ok bool) {
	a, canAudit := Counters(p).(TagAuditor)
	if !canAudit {
		return 0, false
	}
	return a.LiveTags(), true
}
