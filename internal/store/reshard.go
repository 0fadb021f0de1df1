// Offline re-sharding. A Store's shard layout is fixed while it serves;
// growing a store from N to M > N shards is a recovery-time operation on
// its image: Reshard durably ACTIVATES the new count, and Recover — which
// redistributes every key of a pending reshard by the target count (see
// Store.rebuild) — does the moving, so there is one mover and it is the
// one that must already be right after any crash.
//
// Activation:
//
//  1. A persisted shard DIRECTORY is allocated — one anchor slot per
//     shard beyond the base count, playing the role the heap root region
//     plays for the original shards (root regions are sized once at
//     creation and cannot grow). Anchors of shards grown by earlier
//     reshards are copied in (the tables themselves are untouched); the
//     new, empty target tables are built by hashtable.New anchored at
//     their slots. Everything is fenced.
//  2. The superblock's directory pointer is persisted, then the target
//     shard count (fNewShards) — a single-word activation. A crash before
//     it recovers the old layout (the directory is unreferenced garbage,
//     or — after an earlier reshard — carries the same anchors the old
//     directory did); a crash after it recovers the new one.
package store

import (
	"fmt"

	"flit/internal/dstruct"
	"flit/internal/dstruct/hashtable"
	"flit/internal/pmem"
)

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

// Reshard is Recover to a larger shard count: it rebuilds the store
// persisted in mem with newShards shards, every key moved to the shard the
// new count assigns it. mem, watermark and opts are Recover's. It refuses
// a target that does not grow the store or exceeds MaxShards. A crash
// inside Reshard leaves an image that Recover finishes to newShards (or,
// before the activation word, recovers unchanged); Reshard to the same
// target finishes it too, and to any other target is refused until it has.
func Reshard(mem *pmem.Memory, watermark uint64, opts Options, newShards int) (*Store, RecoveryStats, error) {
	st, g, err := attach(mem, watermark, opts)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	switch pending := g.target > g.serving; {
	case pending && g.target != newShards:
		return nil, RecoveryStats{}, fmt.Errorf("store: a reshard to %d shards is pending; finish it before one to %d", g.target, newShards)
	case !pending && (newShards <= g.serving || newShards > MaxShards):
		return nil, RecoveryStats{}, fmt.Errorf("store: reshard target %d outside (%d,%d]", newShards, g.serving, MaxShards)
	case !pending:
		st.activate(&g, newShards)
	}
	return st, st.rebuild(g), nil
}

// activate durably commits the store to g.serving → newShards and updates
// g to match (see the file comment for the order).
func (s *Store) activate(g *geometry, newShards int) {
	if s.policy == nil {
		s.policy = s.newPolicy() // the grown shards' tables are built under it
	}
	t := s.mem.RegisterThread()
	defer t.Release()
	ar := s.heap.NewArena()
	defer ar.Release()

	dir := ar.Alloc((newShards - g.base) * dirSpacing(s.stride))
	for i := g.base; i < g.serving; i++ {
		dst := dirSlotAddr(dir, i-g.base, s.stride)
		t.Store(dst, uint64(dstruct.Ptr(s.mem.VolatileWord(dirSlotAddr(g.dir, i-g.base, s.stride)))))
		t.PWB(dst)
	}
	for j := g.serving; j < newShards; j++ {
		hashtable.New(s.cfgAt(dirSlotAddr(dir, j-g.base, s.stride)), g.buckets)
	}
	t.PFence()
	s.sbWrite(t, fDirPtr, uint64(dir))
	s.sbWrite(t, fNewShards, uint64(newShards))
	g.dir, g.target = dir, newShards
}
