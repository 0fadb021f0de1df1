// Package server exercises ackorder in a package whose import path
// ends in internal/server. The batch type lives in-package, which makes
// it a batch carrier for the analyzer.
package server

type batch struct{ pending int }

func (b *batch) Put(k, v uint64) { b.pending++ }
func (b *batch) Get(k uint64) (uint64, bool) {
	return 0, false
}
func (b *batch) ApplyHashed(ops []uint64) { b.pending += len(ops) }
func (b *batch) Commit() int {
	n := b.pending
	b.pending = 0
	return n
}

func writeResp(n int) {}

// goodOrder commits before acking.
func goodOrder(b *batch) {
	b.Put(1, 2)
	b.Commit()
	writeResp(1)
}

// goodConditionalCommit is the Batcher.Exec shape: the commit is
// conditional, correlated with whether the loop produced effects. The
// asymmetric join must not flag the ack.
func goodConditionalCommit(b *batch, ops []uint64) {
	n := 0
	for _, op := range ops {
		b.Put(op, op)
		n++
	}
	if n > 0 {
		b.Commit()
	}
	writeResp(n)
}

// readsNeedNoCommit: Get carries no commit obligation.
func readsNeedNoCommit(b *batch) {
	v, _ := b.Get(7)
	writeResp(int(v))
}

// ackBeforeCommit acks while the batch is dirty.
func ackBeforeCommit(b *batch) {
	b.Put(1, 2)
	writeResp(1) // want "response write (writeResp) is reachable before the pending batch is committed"
	b.Commit()
}

// ackAfterApplyHashed: the hashed vector entry point is a store effect,
// so acking after it without a Commit is flagged.
func ackAfterApplyHashed(b *batch, ops []uint64) {
	b.ApplyHashed(ops)
	writeResp(len(ops)) // want "response write (writeResp) is reachable before the pending batch is committed"
}

// ackOnEffectBranch: the effect branch acks without committing.
func ackOnEffectBranch(b *batch, store bool) {
	if store {
		b.Put(3, 4)
		writeResp(1) // want "response write (writeResp) is reachable before the pending batch is committed"
	} else {
		b.Commit()
		writeResp(0)
	}
}

// helperCommit commits via a helper; the summary must see it.
func helperCommit(b *batch) {
	b.Put(5, 6)
	commitQuietly(b)
	writeResp(1)
}

func commitQuietly(b *batch) { b.Commit() }

// closureAck acks via a local closure; calling it dirty is flagged at
// the call site.
func closureAck(b *batch) {
	writeResps := func(n int) { writeResp(n) }
	b.Put(8, 9)
	writeResps(1) // want "response write (writeResps) is reachable before the pending batch is committed"
	b.Commit()
	writeResps(1)
}

// suppressedAck documents an intentional early ack (chaos tooth shape).
func suppressedAck(b *batch) {
	b.Put(1, 1)
	writeResp(1) //flitvet:ignore ackorder fixture: chaos tooth acks before commit by design
	b.Commit()
}
