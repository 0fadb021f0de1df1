// Online shard splitting: a store created with N shards can grow to M > N
// shards while serving traffic, without doubling memory or stopping the
// world. The protocol is crash-consistent at every persist boundary:
//
//  1. A persisted shard DIRECTORY is allocated — one anchor slot per
//     shard beyond the base count, playing the role the heap root region
//     plays for the original shards (root regions are sized once at
//     creation and cannot grow). Anchors of shards grown by earlier
//     splits are copied in; the new target tables are built anchored at
//     their slots. Everything is fenced.
//  2. The superblock's directory pointer is persisted, then the target
//     shard count (fNewShards) — a single-word activation. From this
//     word on, a crash recovers to the POST-split layout (store.Recover
//     redistributes every key by the target count).
//  3. A background migrator walks the old shards in order, moving each
//     key that changes shards (Get old → Insert target if absent →
//     Delete old) through a group-commit batch: one fence per batch,
//     not per key. Sessions route per-key: fully-migrated shards go
//     straight to the target table; the shard under migration is
//     dual-read (target first, then old) under a read-lock the migrator
//     excludes only while actually moving a batch.
//  4. Completion persists the serving count (fShards = fNewShards) —
//     the idempotent commit word — and publishes the flat post-split
//     layout. A crash at ANY point before that word re-runs the
//     redistribution at recovery; the move protocol only ever leaves a
//     key present in both tables with the target copy authoritative, so
//     recovery is duplicate-free without a persisted cursor.
package store

import (
	"fmt"
	"sync"
	"sync/atomic"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/dstruct/hashtable"
	"flit/internal/pmem"
)

// layout is the store's serving configuration, swapped atomically in
// Store.lay. tables holds the serving shards; mig is non-nil while an
// online split migrates keys.
type layout struct {
	tables []*hashtable.Table
	mig    *migration
}

// migration describes one in-flight split from oldN to newN shards.
type migration struct {
	oldN, newN int
	// dir holds the newly created target tables for shard indices
	// [oldN, newN); targets below oldN are the serving tables themselves
	// (a non-doubling split moves keys between serving shards too).
	dir []*hashtable.Table
	// cursor is the migrator's progress: old shards below it are fully
	// migrated (their moved keys live only in target tables), the shard at
	// it is being migrated (dual-read), shards above are untouched.
	// Volatile by design — recovery's redistribution rule is
	// cursor-independent.
	cursor atomic.Int64
	// mu excludes sessions touching not-yet-migrated shards (readers)
	// from the migrator's move batches (writer). Fully-migrated shards
	// and keys that do not change shards never take it.
	mu sync.RWMutex
	// moved counts keys moved so far (observability).
	moved atomic.Uint64
	// crashed is set when the migrator's crash countdown fires; the
	// migration freezes (dual-read routing stays correct) and recovery
	// finishes the split.
	crashed atomic.Bool
	// done closes when the migrator goroutine exits (completed or
	// crashed).
	done chan struct{}
}

// target returns shard index j's target table under this migration.
func (m *migration) target(lay *layout, j int) *hashtable.Table {
	if j < m.oldN {
		return lay.tables[j]
	}
	return m.dir[j-m.oldN]
}

// dirSpacing is the word distance between directory anchor slots: at
// least 2 so an adjacent-counter policy (stride 2) has room for the
// anchor's counter word, keeping the directory layout the same across
// policies a recovery might probe with.
func dirSpacing(stride int) int {
	if stride < 2 {
		return 2
	}
	return stride
}

// dirSlotAddr returns the address of directory slot j (anchoring shard
// base+j) for a directory object at dir.
func dirSlotAddr(dir pmem.Addr, j, stride int) pmem.Addr {
	return dir + pmem.Addr(j*dirSpacing(stride))
}

// SplitStatus reports the state of the current (or most recent, if still
// published) online split.
type SplitStatus struct {
	// Active is true while a migration is published in the layout.
	Active bool
	// Shards and Target are the serving and target shard counts.
	Shards, Target int
	// Migrated counts old shards fully migrated.
	Migrated int
	// Moved counts keys moved so far.
	Moved uint64
	// Crashed is true when the migrator died mid-split (simulated crash);
	// the split completes at recovery.
	Crashed bool
}

// Split grows the store to newShards online. It returns once the split is
// durably activated (a crash from here on recovers to the post-split
// layout) with the key migration running in the background; WaitSplit
// blocks until the migration has drained. Split cannot run while flat
// combiners exist (they capture the shard list at build time) or while a
// previous split is still migrating.
//
//flit:rawpersist split activation writes directory anchors and the superblock activation word with explicit fence ordering
func (s *Store) Split(newShards int) error {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	if s.combiners != nil {
		return fmt.Errorf("store: cannot split a store with combined sessions")
	}
	lay := s.lay.Load()
	if lay.mig != nil {
		return fmt.Errorf("store: split to %d shards still migrating", lay.mig.newN)
	}
	cur := len(lay.tables)
	if newShards <= cur || newShards > MaxShards {
		return fmt.Errorf("store: split target %d outside (%d,%d]", newShards, cur, MaxShards)
	}

	t := s.mem.RegisterThread()
	defer t.Release()
	ar := s.heap.NewArena()
	defer ar.Release()

	// Build the new directory: one slot per shard beyond the base count.
	// Slots for shards grown by earlier splits copy their existing anchor
	// (the table object itself is untouched — anchors are only read at
	// attach/recovery); slots for the new shards are written by
	// hashtable.New, which persists its own anchor. Everything is fenced
	// before the superblock points at it.
	spacing := dirSpacing(s.stride)
	dir := ar.Alloc((newShards - s.baseShards) * spacing)
	for g := s.baseShards; g < cur; g++ {
		dst := dirSlotAddr(dir, g-s.baseShards, s.stride)
		t.Store(dst, uint64(lay.tables[g].Base()))
		t.PWB(dst)
	}
	targets := make([]*hashtable.Table, newShards-cur)
	for j := cur; j < newShards; j++ {
		targets[j-cur] = hashtable.New(s.cfgAt(dirSlotAddr(dir, j-s.baseShards, s.stride)), s.opts.Buckets)
	}
	t.PFence()

	// Persist the directory pointer, then the target count. The count is
	// the activation word: a crash before it recovers the pre-split
	// layout (the directory is unreferenced garbage, or — after a prior
	// split — carries the same anchors the old directory did); a crash
	// after it recovers post-split.
	s.sbWrite(t, fDirPtr, uint64(dir))
	s.sbWrite(t, fNewShards, uint64(newShards))

	m := &migration{oldN: cur, newN: newShards, dir: targets, done: make(chan struct{})}
	s.lay.Store(&layout{tables: lay.tables, mig: m})
	go s.migrate(&layout{tables: lay.tables, mig: m})
	return nil
}

// WaitSplit blocks until no migration is in flight (returning immediately
// when none is). It reports whether the migration it waited for (if any)
// completed rather than crashed.
func (s *Store) WaitSplit() bool {
	lay := s.lay.Load()
	if lay.mig == nil {
		return true
	}
	<-lay.mig.done
	return !lay.mig.crashed.Load()
}

// SplitStat reports the current split's progress.
func (s *Store) SplitStat() SplitStatus {
	lay := s.lay.Load()
	st := SplitStatus{Shards: len(lay.tables), Target: len(lay.tables)}
	if m := lay.mig; m != nil {
		st.Active = true
		st.Target = m.newN
		st.Migrated = int(m.cursor.Load())
		st.Moved = m.moved.Load()
		st.Crashed = m.crashed.Load()
	}
	return st
}

// migrate is the background migrator goroutine. A simulated crash
// (pmem.ErrCrashed via the migrator thread's countdown) freezes the
// migration in place: the crashed flag is published, routing stays in
// dual-read mode (still correct — it just never advances), and recovery
// completes the split from the superblock.
func (s *Store) migrate(lay *layout) {
	m := lay.mig
	defer close(m.done)
	if pmem.RunToCrash(func() { s.migrateBody(lay) }) {
		// Whole-process crash model: the migrator died, so the store did.
		m.crashed.Store(true)
		s.combCrashed.Store(true)
	}
}

func (s *Store) migrateBody(lay *layout) {
	m := lay.mig
	t := s.mem.RegisterThread()
	ar := s.heap.NewArena()
	d := core.NewDeferred(s.policy)
	opts := dstruct.ThreadOpts{T: t, Arena: ar, Policy: d}
	ths := make([]*hashtable.Thread, m.newN)
	for j := 0; j < m.newN; j++ {
		ths[j] = m.target(lay, j).Open(opts)
	}
	// The closes run during a crash unwind too — discarding a crashed
	// thread's pending write-backs is exactly the simulated power-loss
	// state, and releasing the handles keeps chaos runs leak-free.
	defer func() {
		for _, th := range ths {
			th.Close()
		}
		ar.Release()
		t.Release()
	}()

	for sh := 0; sh < m.oldN; sh++ {
		s.migrateShard(lay, ths, t, d, sh)
		// Volatile bump only after the shard's last batch has fenced:
		// sessions seeing the new cursor go target-only lock-free.
		m.cursor.Store(int64(sh + 1))
	}

	// Completion: persist the serving count — the idempotent commit word,
	// the same one recovery writes — then publish the flat layout. A
	// session still holding the migration layout routes every shard
	// through the fast path (cursor == oldN), reaching the same tables.
	s.sbWrite(t, fShards, uint64(m.newN))
	tables := make([]*hashtable.Table, m.newN)
	for j := 0; j < m.newN; j++ {
		tables[j] = m.target(lay, j)
	}
	s.lay.Store(&layout{tables: tables})
}

// migrateBatch bounds how many keys move under one write-lock hold and
// one deferred-commit fence.
const migrateBatch = 64

func (s *Store) migrateShard(lay *layout, ths []*hashtable.Thread, t *pmem.Thread, d *core.Deferred, sh int) {
	m := lay.mig
	// Movers are the shard's keys whose target shard differs. Membership
	// of movers is stable outside move batches: every session op on a
	// mover key of a not-fully-migrated shard holds the read lock, so the
	// write lock gives a consistent mover list. Keys that stay (same
	// index mod newN) churn lock-free concurrently, but never join the
	// mover set — the shard index of a key is a pure function of the key.
	m.mu.Lock()
	var movers []uint64
	for k := range lay.tables[sh].Snapshot() {
		if shardIdx(k, m.newN) != sh {
			movers = append(movers, k)
		}
	}
	m.mu.Unlock()

	for len(movers) > 0 {
		n := migrateBatch
		if n > len(movers) {
			n = len(movers)
		}
		batch := movers[:n]
		movers = movers[n:]
		m.mu.Lock()
		for _, k := range batch {
			v, ok := ths[sh].Get(k)
			if !ok {
				continue // deleted since the snapshot
			}
			// Insert-if-absent: a session Put/Add during migration upserts
			// the target only, and that copy is authoritative — never
			// overwrite it with the stale old-shard value.
			nj := shardIdx(k, m.newN)
			if ths[nj].Insert(k, v) {
				m.moved.Add(1)
			}
			ths[sh].Delete(k)
		}
		m.mu.Unlock()
		// One fence commits the whole batch (the deferred policy already
		// applied and flushed each store; publishing CASes fenced
		// individually, as in any group-commit session). Crash-safe to
		// fence outside the lock: recovery redistributes correctly from
		// any persisted prefix.
		d.Flush(t)
	}
}
