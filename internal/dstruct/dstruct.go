// Package dstruct defines the common shape of the four lock-free sets the
// paper evaluates (linked list, hash table, skiplist, BST): a Set built
// over a persistent heap and a core.Policy, operated on through per-thread
// handles, with a durability Mode choosing which instructions are p- and
// which are v-instructions. A structure reclaims unlinked nodes through one
// epoch domain (internal/reclaim) — its own, or the one Config.Domain
// names — and each handle through one reclamation handle: its own, or the
// one ThreadOpts.Handle passes.
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
	// Domain is the reclamation domain the structure's handles register
	// in. Nil gives the structure a domain of its own (Attach); a store
	// passes one domain to every shard table, so a deleted node waits out
	// one grace period of the store, not one of its shard.
	Domain *reclaim.Domain
}

// StrideFor returns the field stride a policy requires.
func StrideFor(p core.Policy) int {
	if _, adj := core.Counters(p).(core.Adjacent); adj {
		return core.AdjacentStride
	}
	return 1
}

// StrideForName is StrideFor of the policy core.NewPolicyByName would
// build for name, without building it (a flit-HT policy zeroes a counter
// table).
func StrideForName(name string) int {
	if name == core.PolicyAdjacent {
		return core.AdjacentStride
	}
	return 1
}

// DomainOrNew returns the reclamation domain a structure built on c
// reclaims through: Domain when c names one, else a fresh domain of the
// structure's own.
func (c Config) DomainOrNew() *reclaim.Domain {
	if c.Domain != nil {
		return c.Domain
	}
	return reclaim.NewDomain()
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

// ThreadOpts configures a per-goroutine structure handle — the single
// options-struct argument of Config.Open and of every structure's Open.
// Zero values pick the defaults, so Open(ThreadOpts{}) is the standalone
// handle NewThread returns, and each field overrides one piece of the
// execution context independently.
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
	// Handle is the reclamation handle, registered in the structure's
	// domain. A goroutine operating several structures of one domain — a
	// store session spanning N shards — passes one handle to every
	// structure handle, beside T and Arena; no operation touches two
	// structures, so its Enter and Exit never nest. Nil registers a
	// fresh handle.
	Handle *reclaim.Handle
}

// Ctx is the execution context of one handle, and the one owner of what
// every structure decides per durability Mode: the structure's Config
// (Policy possibly overridden for this handle), the pmem thread (write-back
// queue, stats), a heap arena and — for structures that reclaim through an
// epoch domain — the reclamation handle.
type Ctx struct {
	Config
	T  *pmem.Thread
	Ar *pheap.Arena
	H  *reclaim.Handle
	// win is Policy as a commit window (core.Deferred), nil under a raw
	// policy: where Retire queues.
	win *core.Deferred
	// ownsT/ownsAr/ownsH record whether Open registered the pmem
	// thread/arena/reclamation handle itself (nil ThreadOpts fields), in
	// which case Close releases them; resources passed in by the caller
	// stay the caller's to release.
	ownsT, ownsAr, ownsH bool
}

// Open creates the execution context of one per-goroutine handle: zero
// fields of o take the defaults (fresh pmem thread, fresh arena, configured
// policy). With a non-nil dom the context also reclaims through dom: with
// o.Handle, which must belong to dom, or else with a handle it registers
// itself, owned by its pmem thread, so a thread that dies by crash
// injection while pinned is adopted instead of wedging the epoch.
func (c Config) Open(dom *reclaim.Domain, o ThreadOpts) Ctx {
	if o.Policy != nil {
		c.Policy = o.Policy
	}
	x := Ctx{Config: c, T: o.T, Ar: o.Arena, H: o.Handle}
	x.win = core.Window(c.Policy)
	if x.H != nil && x.H.Domain() != dom {
		panic("dstruct: ThreadOpts.Handle belongs to another reclamation domain")
	}
	if x.T == nil {
		x.T, x.ownsT = c.Heap.Mem().RegisterThread(), true
	}
	if x.Ar == nil {
		x.Ar, x.ownsAr = c.Heap.NewArena(), true
	}
	if x.H == nil && dom != nil {
		x.H, x.ownsH = dom.NewHandleOwned(x.Ar, x.T), true
	}
	return x
}

// Close releases the context: a reclamation handle Open registered itself
// deregisters from its domain (retirees still in their grace period become
// domain orphans), and a pmem thread or arena Open registered itself is
// released for reuse. Idempotent; the handle must not be used afterwards.
func (c *Ctx) Close() {
	if c.ownsH {
		c.H.Close()
	}
	if c.ownsAr {
		c.Ar.Release()
	}
	if c.ownsT {
		c.T.Release()
	}
}

// TravP is the flag of traversal loads: p-instructions under Automatic,
// v-instructions under NVTraverse and Manual.
//
//flit:hotpath
func (c *Ctx) TravP() bool { return c.Mode == Automatic }

// Transition re-examines links with p-loads at the traversal/critical
// boundary — NVTraverse's transition, and the same flush Manual needs —
// so that a tagged (pending, possibly unpersisted) word is flushed before
// anything rests on it. The rule, stated once: pass every word the
// response or the next CAS rests on.
//
//   - A response rests on the link proving presence or absence, and on a
//     mark or value word read beside it.
//   - An insert's linking CAS rests on the link it swings and on the link
//     through which its predecessor was reached: a node linked behind a
//     predecessor that a crash unlinks is lost with it. One hop back
//     suffices — every inserter persisted its own predecessor's incoming
//     link before it linked, and a link an insert re-pointed since falls
//     back, if lost, to an old value that still reaches the predecessor.
//   - A helper's unlink of a marked node rests on the mark: the unlink
//     sits in the predecessor, and if a crash loses the way into the
//     predecessor, the old way to the node survives — unmarked, unless
//     the mark was persisted first.
//
// Under Automatic every load already was a p-load and the transition is
// skipped.
//
//flit:hotpath
func (c *Ctx) Transition(links ...pmem.Addr) {
	if c.Mode == Automatic {
		return
	}
	for _, a := range links {
		c.Policy.Load(c.T, a, core.P)
	}
}

// InitNode writes the fields of a fresh, still private node. Automatic
// cannot know the node is private — the C++ library instruments every
// persist<> access identically — so each field is a shared p-store; the
// optimized modes initialise it privately (InitPrivate).
//
//flit:hotpath
func (c *Ctx) InitNode(node pmem.Addr, fields ...uint64) {
	if c.Mode != Automatic {
		c.InitPrivate(node, fields...)
		return
	}
	for i, v := range fields {
		c.Policy.Store(c.T, c.Field(node, i), v, core.P)
	}
}

// InitPrivate writes the fields of an object no other thread can reach
// with private v-stores plus one batched write-back per line. It does not
// fence: the leading fence of the shared p-store that publishes the object
// orders the write-backs before the link.
//
//flit:hotpath
func (c *Ctx) InitPrivate(obj pmem.Addr, fields ...uint64) {
	for i, v := range fields {
		c.Policy.StorePrivate(c.T, c.Field(obj, i), v, core.V)
	}
	c.Policy.PersistObject(c.T, obj, c.Words(len(fields)))
}

// Publish anchors a structure: a shared p-store of obj into the root word
// — its leading fence orders obj's contents before the root points at
// them — completed, so recovery after an immediate crash finds the
// structure, not garbage.
func (c *Ctx) Publish(obj pmem.Addr) {
	c.Policy.Store(c.T, c.Root(), uint64(obj), core.P)
	c.Policy.Complete(c.T)
}

// Anchor is the construction of a structure whose root points at one
// object (a header, a sentinel): allocate it, initialise it privately and
// Publish it, on a context opened and closed for the purpose.
func (c Config) Anchor(fields ...uint64) pmem.Addr {
	x := c.Open(nil, ThreadOpts{})
	defer x.Close()
	obj := x.Ar.Alloc(x.Words(len(fields)))
	x.InitPrivate(obj, fields...)
	x.Publish(obj)
	return obj
}

// Done is every operation's epilogue: complete the operation (persist what
// it depends on), then leave the reclamation epoch.
//
//flit:hotpath
func (c *Ctx) Done() {
	c.Policy.Complete(c.T)
	c.H.Exit()
}

// Retire schedules the n-word block at p, which this handle's own unlink
// just made unreachable, for reuse. The unlink must persist before the
// block can be reused. A raw policy's p-CAS fenced before it returned, so
// the block goes straight to the reclamation handle; under a commit window
// the unlink persists at the window's commit, so the window holds the
// block until then (core.Deferred.Retire).
//
//flit:hotpath
func (c *Ctx) Retire(p pmem.Addr, n int) {
	if c.win != nil {
		c.win.Retire(c.H, p, n)
		return
	}
	c.H.Retire(p, n)
}

// UnlinkOwn is a Delete's own unlink: the p-CAS of predLink, in the chain
// anchored at head, from the node the Delete just marked (curr) to its
// successor. Its leading fence has one job (Transition's third rule),
// since the mark's own fence drained what came before: a crash that keeps
// the unlink and loses the way into the predecessor brings back the old
// path to the node — unmarked, unless the mark persisted first. Under a
// commit window the unlink skips that fence, and the mark and the unlink
// drain together at the next fence, where that crash cannot happen:
//
//   - predLink is head: the anchor is the way in, and it is never lost;
//   - Automatic: find p-loaded every link on the way in, and the mark's
//     own leading fence drained every flush those loads took.
//
// Everywhere else, and under a raw policy, whose queue the mark's own
// fence has emptied by now, the unlink is an ordinary p-CAS.
//
//flit:hotpath
func (c *Ctx) UnlinkOwn(head, predLink pmem.Addr, curr, succ uint64) bool {
	if c.win != nil && (c.Mode == Automatic || predLink == head) {
		return c.win.CASUnfenced(c.T, predLink, curr, succ)
	}
	return c.Policy.CAS(c.T, predLink, curr, succ, core.P)
}

// SetThread is a per-thread handle to a concurrent set. Handles are not
// safe for concurrent use; create one per goroutine and Close it when the
// goroutine is done.
type SetThread interface {
	// Insert adds key→val if key is absent; reports whether it inserted.
	Insert(key, val uint64) bool
	// Delete removes key if present; reports whether it removed.
	Delete(key uint64) bool
	// Contains reports whether key is present.
	Contains(key uint64) bool
	// Close releases the handle's pmem thread, arena and reclamation slot.
	Close()
}

// Set is a concurrent set instance.
type Set interface {
	// NewThread creates a per-goroutine operation handle.
	NewThread() SetThread
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
