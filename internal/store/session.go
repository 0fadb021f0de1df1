package store

import (
	"fmt"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/dstruct/hashtable"
	"flit/internal/pheap"
	"flit/internal/pmem"
	"flit/internal/reclaim"
)

// SessionMode selects how a session's operations reach persistence. The
// combiner is a mode, not a fourth session type: every mode shares one
// generic session surface (Open / Sess).
type SessionMode int

const (
	// Direct commits after every operation: each op is a commit window of
	// one under the same skeleton Batched sessions use (core.Deferred).
	// Its stores and RMWs apply and flush, and the operation's completion
	// fence — always issued — persists them before the tags it holds are
	// released and the nodes it unlinked are retired
	// (core.Deferred.Commit), so an op's p-stores ride one fence, not one
	// each. Results are durable when the call returns.
	Direct SessionMode = iota
	// Batched executes operations under the group-commit skeleton
	// (core.Deferred): stores apply and flush immediately but the fence
	// and untagging are held until Commit, which persists the whole batch
	// under one fence. Results MUST NOT be exposed before Commit returns.
	Batched
	// Combined announces operations to the store's one flat combiner:
	// whichever announcer wins its lock executes every announced operation,
	// across all shards, through the combiner's Batched session and commits
	// the window under ONE fence before publishing results, so results are
	// durable — and safe to expose — as soon as the call returns. FAA
	// traffic (Add) is additionally coalesced to net deltas within a window.
	Combined
)

// String names the mode as spelled in bench cell IDs.
func (m SessionMode) String() string {
	switch m {
	case Direct:
		return "direct"
	case Batched:
		return "batched"
	case Combined:
		return "combined"
	default:
		return fmt.Sprintf("SessionMode(%d)", int(m))
	}
}

// SessionModes lists all modes.
var SessionModes = []SessionMode{Direct, Batched, Combined}

// Key constrains the session key type: string for convenience, []byte for
// allocation-free hot loops reusing one buffer. Both hash identically
// (HashKey ≡ HashKeyBytes on equal bytes), so sessions of different key
// types interoperate on one store.
type Key interface{ ~string | ~[]byte }

// OpKind identifies a store operation in the vector Apply interface.
type OpKind uint8

const (
	// OpGet reads a key: Result{Val, Ok: present}.
	OpGet OpKind = iota
	// OpPut stores key→val (masked to ValueMask): Result{Ok: inserted}.
	OpPut
	// OpDelete removes a key: Result{Ok: was present}.
	OpDelete
	// OpContains probes a key: Result{Ok: present}.
	OpContains
	// OpAdd atomically adds Val (a two's-complement delta, full 64-bit
	// wrap) to the key's value, inserting key→Val when absent. Direct and
	// Batched sessions return Result{Val: new value, Ok: was present};
	// Combined sessions coalesce deltas blind and return Result{} (see
	// Sess.Add).
	OpAdd
)

// Op is one operation in a vector Apply call.
type Op[K Key] struct {
	Kind OpKind
	Key  K
	// Val is the value for OpPut, the delta for OpAdd; unused otherwise.
	Val uint64
}

// Result is one operation's outcome. Val/Ok meanings per OpKind are
// documented on the OpKind constants.
type Result struct {
	Val uint64
	Ok  bool
}

// HashedOp is an Op after key hashing: what every session mode executes,
// what travels through a combining slot, and ApplyHashed's input.
type HashedOp struct {
	Kind OpKind
	H    uint64 // HashKey of the key: the key itself, to the store
	Val  uint64
}

// sessionCore is the non-generic heart of Sess[K]: it works on hashed
// keys and dispatches on the session mode. Not safe for concurrent use.
type sessionCore struct {
	st   *Store
	mode SessionMode

	// Direct/Batched execution state: one pmem thread, one arena, one
	// reclamation handle in the store's domain, the commit window every
	// table handle's policy runs through, and one handle per shard table
	// sharing them, opened once (nil in Combined mode — combined sessions
	// own no execution resources, the store's combiner does).
	t   *pmem.Thread
	ar  *pheap.Arena
	h   *reclaim.Handle
	d   *core.Deferred
	ths []*hashtable.Thread

	// Combined announcement state: this session's slot at the store's
	// combiner, plus a single-op vector reused across calls.
	slot *cslot
	op1  [1]HashedOp
	res1 [1]Result

	pending int
	closed  bool
}

func newSessionCore(s *Store, mode SessionMode) *sessionCore {
	c := &sessionCore{st: s, mode: mode}
	if mode == Combined {
		c.slot = s.openCombiner().register()
		return c
	}
	c.t = s.mem.RegisterThread()
	c.ar = s.heap.NewArena()
	c.h = s.dom.NewHandleOwned(c.ar, c.t)
	c.d = core.NewDeferred(s.policy)
	o := dstruct.ThreadOpts{T: c.t, Arena: c.ar, Policy: c.d, Handle: c.h}
	c.ths = make([]*hashtable.Thread, len(s.tables))
	for i, tbl := range s.tables {
		c.ths[i] = tbl.Open(o)
	}
	return c
}

// close releases everything the session holds: its combiner slot in Combined
// mode; otherwise a Batched session's still-open batch is quietly
// committed, so no flit-counter stays tagged, every table handle and
// then the reclamation handle are closed, and the arena and pmem thread
// are returned for reuse. The window of a session whose thread a crash
// killed is not committed: its commit panics (core.Deferred.Flush), so
// nothing drains after the crash and its tags stay held. Idempotent.
func (c *sessionCore) close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.mode == Combined {
		c.st.comb.Load().deregister(c.slot)
		return
	}
	if c.pending > 0 {
		// An open window's results were never exposed, but its stores
		// already hit the table — commit them rather than leave flit-tags
		// dangling. The flush of a crashed session panics, and a poisoned
		// one's may; the window was never acknowledged, so dropping it is
		// a legal crash point, and close still releases everything.
		func() {
			defer func() { recover() }()
			c.d.Flush(c.t)
		}()
	}
	for _, th := range c.ths {
		th.Close()
	}
	c.h.Close()
	c.ar.Release()
	c.t.Release()
}

// do1 routes a single operation through the mode's execution path. A
// Direct op is a window of one: it commits before it returns.
//
//flit:hotpath
func (c *sessionCore) do1(kind OpKind, h, val uint64) Result {
	if c.mode == Combined {
		c.op1[0] = HashedOp{Kind: kind, H: h, Val: val}
		c.applyCombined(c.op1[:], c.res1[:])
		return c.res1[0]
	}
	c.pending++
	r := exec(c.ths[shardIdx(h, len(c.ths))], kind, h, val)
	if c.mode == Direct {
		c.d.Commit(c.t)
		c.pending = 0
	}
	return r
}

// exec runs one op on one table handle: the one op switch, shared by
// Direct and Batched sessions and so by the combiner.
//
//flit:hotpath
func exec(sh *hashtable.Thread, kind OpKind, h, val uint64) Result {
	switch kind {
	case OpGet:
		v, ok := sh.Get(h)
		return Result{Val: v, Ok: ok}
	case OpPut:
		return Result{Ok: sh.Put(h, val&ValueMask)}
	case OpDelete:
		return Result{Ok: sh.Delete(h)}
	case OpContains:
		return Result{Ok: sh.Contains(h)}
	case OpAdd:
		v, ok := sh.Add(h, val)
		return Result{Val: v, Ok: ok}
	default:
		panic(errUnknownOp(kind))
	}
}

// errUnknownOp builds the panic value of exec's unreachable default out of
// line, so the fmt call and its boxed argument stay off the hot frame.
//
//go:noinline
func errUnknownOp(kind OpKind) error {
	return fmt.Errorf("store: unknown OpKind %d", kind)
}

// commit is the group commit (Batched mode): one fence persists every
// operation since the previous commit; returns lines drained. Direct ops
// committed as they returned and Combined windows commit at the
// combiner, so commit is a no-op for them.
func (c *sessionCore) commit() int {
	if c.mode != Batched {
		return 0
	}
	c.pending = 0
	return c.d.Flush(c.t)
}

// Sess is the unified per-goroutine store session, generic over the key
// type and parameterized by SessionMode at construction. Not safe for
// concurrent use; create one per goroutine. Sessions of any mix of modes
// compose on one store: Direct and Batched sessions interleave through
// the structures' lock-free protocols (in-flight deferred stores stay
// flit-tagged, so other sessions' p-loads carry their flush obligation),
// and Combined sessions serialize through the store's combiner.
type Sess[K Key] struct {
	c *sessionCore

	// hops is Apply's scratch: the hashed spelling of the op vector.
	hops []HashedOp
}

// Open registers a new session on s in the given mode. The key type is
// chosen explicitly at the call site: Open[string](s, store.Direct) for
// convenience keys, Open[[]byte](s, store.Batched) for zero-allocation
// loops reusing one key buffer.
func Open[K Key](s *Store, mode SessionMode) *Sess[K] {
	return &Sess[K]{c: newSessionCore(s, mode)}
}

// Commit is the group commit (Batched mode): one fence persists every
// operation executed since the previous Commit, then the batch's
// deferred flit-tags are released; it returns the number of cache lines
// drained. A batch that left nothing pending (Gets that saw no flit-tag)
// is already durable and commits without a fence (core.Deferred.Flush).
// Only after Commit may a Batched session's results be exposed.
// In Direct and Combined modes Commit is a no-op returning 0.
func (s *Sess[K]) Commit() int { return s.c.commit() }

// Close releases the session's execution resources — its epoch-reclamation
// handle, the heap arena (surrendering its free lists for reuse), and the
// pmem thread (its ID and stats fold back into the memory's totals); a
// Combined session instead withdraws its combiner slot. A Batched
// session's uncommitted batch is committed first. Sessions MUST be
// closed when abandoned: an open session pins the reclamation epoch and a
// thread slot, which is unbounded memory growth under connection churn.
// Close is idempotent and safe after a simulated crash: the open window
// is then lost, exactly as power loss would lose it, and Close persists
// none of it; its flit-tags stay held, so readers of its values flush
// them. The session must not be used after Close.
func (s *Sess[K]) Close() { s.c.close() }

// Get returns the value stored under key, if present.
func (s *Sess[K]) Get(key K) (uint64, bool) {
	r := s.c.do1(OpGet, hashKey(key), 0)
	return r.Val, r.Ok
}

// Put stores key→val (masked to ValueMask), inserting or durably
// overwriting in place; it reports whether the key was newly inserted.
func (s *Sess[K]) Put(key K, val uint64) bool {
	return s.c.do1(OpPut, hashKey(key), val).Ok
}

// Delete removes key; it reports whether the key was present.
func (s *Sess[K]) Delete(key K) bool {
	return s.c.do1(OpDelete, hashKey(key), 0).Ok
}

// Apply executes the op vector, writing each operation's outcome into
// res (len(res) must be at least len(ops)). Direct mode runs each op to
// completion in order. Batched mode executes the vector as one
// uncommitted batch — the caller owns the Commit. Combined mode announces
// the whole vector to the store's combiner and returns once the window
// that executed it has committed: results are durable on return. Within
// one Apply, ops on the same key execute in vector order.
func (s *Sess[K]) Apply(ops []Op[K], res []Result) {
	s.hops = s.hops[:0]
	for i := range ops {
		s.hops = append(s.hops, HashedOp{Kind: ops[i].Kind, H: hashKey(ops[i].Key), Val: ops[i].Val})
	}
	s.ApplyHashed(s.hops, res)
}

// ApplyHashed is Apply for ops whose keys the caller hashed (HashKey,
// HashKeyBytes); a Combined session announces the vector as it is.
func (s *Sess[K]) ApplyHashed(ops []HashedOp, res []Result) {
	if len(res) < len(ops) {
		panic("store: Apply result slice shorter than op vector")
	}
	if s.c.mode == Combined {
		s.c.applyCombined(ops, res[:len(ops)])
		return
	}
	for i, op := range ops {
		res[i] = s.c.do1(op.Kind, op.H, op.Val)
	}
}
