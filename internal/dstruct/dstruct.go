// Package dstruct defines the common shape of the four lock-free sets the
// paper evaluates (linked list, hash table, skiplist, BST): a Set built
// over a persistent heap and a core.Policy, operated on through per-thread
// handles, with a durability Mode choosing which instructions are p- and
// which are v-instructions.
package dstruct

import (
	"fmt"

	"flit/internal/core"
	"flit/internal/pheap"
	"flit/internal/pmem"
	"flit/internal/reclaim"
)

// Mode selects the durability method applied to a data structure — the
// three methods compared throughout the paper's evaluation.
type Mode int

const (
	// Automatic makes every instruction a p-instruction: Theorem 3.1's
	// transformation of a linearizable structure into a durably
	// linearizable one with zero algorithmic insight.
	Automatic Mode = iota
	// NVTraverse applies the NVtraverse methodology [Friedman et al.,
	// PLDI'20]: loads in the read-only traversal phase are v-instructions;
	// at the traversal/critical transition the last-read links are
	// re-examined with p-loads; critical-phase instructions are persisted.
	NVTraverse
	// Manual is the hand-tuned method in the style of David et al.
	// [ATC'18]: beyond NVtraverse, instructions whose loss a recovery
	// procedure can repair (skiplist towers, BST cleanup tags) stay
	// volatile.
	Manual
)

// String names the mode as in the paper's figures.
func (m Mode) String() string {
	switch m {
	case Automatic:
		return "automatic"
	case NVTraverse:
		return "nvtraverse"
	case Manual:
		return "manual"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Modes lists all durability methods, in the paper's order.
var Modes = []Mode{Automatic, NVTraverse, Manual}

// ModeByName resolves a durability-mode name as printed by Mode.String.
func ModeByName(name string) (Mode, bool) {
	for _, m := range Modes {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

// KeyMax bounds user keys (exclusive): keys at or above it are reserved
// for sentinels and must fit the instrumented word payload.
const KeyMax = uint64(1) << 48

// Config assembles everything a data structure instance needs.
type Config struct {
	Heap   *pheap.Heap
	Policy core.Policy
	Mode   Mode
	// RootSlot selects which persistent root (pheap.Root) anchors the
	// structure; recovery looks there.
	RootSlot int
	// RootAddr, when non-zero, anchors the structure at an explicit word
	// address instead of a root-region slot. The store's re-sharding
	// uses it: the heap's root region is sized once at creation, so
	// shards grown later anchor in a persisted directory object whose
	// slot addresses recovery reads from the superblock.
	RootAddr pmem.Addr
	// Stride is the distance in words between consecutive persisted
	// fields of a node: 1 normally, core.AdjacentStride under the
	// flit-adjacent counter placement (each field carries its counter in
	// the next word). Use StrideFor.
	Stride int
}

// StrideFor returns the field stride a policy requires.
func StrideFor(p core.Policy) int {
	if f, ok := p.(*core.FliT); ok {
		if _, adj := f.C.(core.Adjacent); adj {
			return core.AdjacentStride
		}
	}
	return 1
}

// Field returns the address of persisted field i of the object at base.
func (c *Config) Field(base pmem.Addr, i int) pmem.Addr {
	return base + pmem.Addr(i*c.Stride)
}

// Words returns the allocation size of an object with n persisted fields.
func (c *Config) Words(n int) int { return n * c.Stride }

// Root returns the address of the structure's root anchor word: the
// explicit RootAddr when set, the RootSlot root-region word otherwise.
func (c *Config) Root() pmem.Addr {
	if c.RootAddr != 0 {
		return c.RootAddr
	}
	return c.Heap.Root(c.RootSlot)
}

// Ctx bundles the per-thread execution state: the pmem thread (write-back
// queue, stats), a heap arena, and an epoch-reclamation handle.
type Ctx struct {
	T  *pmem.Thread
	Ar *pheap.Arena
	H  *reclaim.Handle
}

// NewCtx registers a new thread context against the heap and domain.
func (c *Config) NewCtx(dom *reclaim.Domain) Ctx {
	ar := c.Heap.NewArena()
	return Ctx{T: c.Heap.Mem().RegisterThread(), Ar: ar, H: dom.NewHandle(ar)}
}

// ThreadOpts configures a per-goroutine structure handle — the single
// options-struct constructor argument of every structure's Open. Zero
// values pick the structure's own defaults, so Open(ThreadOpts{}) is the
// standalone handle NewThread returns, and each field overrides one
// piece of the execution context independently.
type ThreadOpts struct {
	// T is the pmem thread the handle issues instructions through (one
	// write-back queue, one statistics record, one crash countdown). A
	// goroutine operating several structures at once — a store session
	// spanning N shards — must pass the same T to every handle, exactly
	// as a single core would. Nil registers a fresh thread.
	T *pmem.Thread
	// Arena is the persistent-heap allocation arena. Nil opens a fresh
	// one; sessions spanning structures share one arena alongside T.
	Arena *pheap.Arena
	// Policy overrides the structure's configured policy for this handle.
	// It must be layout-compatible (same stride) — the intended use is a
	// per-session wrapper over the configured policy, such as the
	// deferred group-commit skeleton (core.NewDeferred). Nil keeps the
	// structure's policy.
	Policy core.Policy
}

// SetThread is a per-thread handle to a concurrent set. Handles are not
// safe for concurrent use; create one per goroutine.
type SetThread interface {
	// Insert adds key→val if key is absent; reports whether it inserted.
	Insert(key, val uint64) bool
	// Delete removes key if present; reports whether it removed.
	Delete(key uint64) bool
	// Contains reports whether key is present.
	Contains(key uint64) bool
}

// Set is a concurrent set instance.
type Set interface {
	// NewThread creates a per-goroutine operation handle.
	NewThread() SetThread
	// Name identifies the data structure (e.g. "list").
	Name() string
}

// Word-payload helpers shared by the structures.

// Ptr extracts the node address from a raw link word.
func Ptr(raw uint64) pmem.Addr { return pmem.Addr(raw & core.PayloadMask) }

// Marked reports the Harris deletion mark.
func Marked(raw uint64) bool { return raw&core.MarkBit != 0 }

// Flagged reports the NM-BST flag bit.
func Flagged(raw uint64) bool { return raw&core.FlagBit != 0 }

// Tagged reports the NM-BST tag bit.
func Tagged(raw uint64) bool { return raw&core.TagBit != 0 }
