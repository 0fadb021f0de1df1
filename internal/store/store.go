// Package store is FliT-Store: a sharded durable key-value service built
// on the repository's persistent stack. It is the service layer the
// ROADMAP's production-scale goal needs above the single-structure
// harness: N independent shards, each a durable lock-free hash table
// (internal/dstruct/hashtable) anchored at its own persistent root slot,
// addressed by string keys hashed into the instrumented payload keyspace.
//
// Durability is inherited wholesale from the FliT P-V Interface: every
// shard runs under the configured core.Policy and durability mode, so the
// store is durably linearizable whenever its policy is (Theorem 3.1), and
// the crash tester can validate whole-store histories with the
// internal/hist checker. Post-crash recovery is shard-parallel — the
// payoff of sharding beyond concurrency: rebuild time divides by the
// shard count.
//
// Layout: root slot 0 points at a persisted superblock (magic, shard
// count, buckets per shard) so recovery is self-describing; shard i is
// anchored at root slot 1+i. As everywhere in this reproduction, the
// allocator watermark is carried across the crash by the embedding
// process, mirroring libvmmalloc's volatile metadata.
package store

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/dstruct/hashtable"
	"flit/internal/dstruct/list"
	"flit/internal/pheap"
	"flit/internal/pmem"
	"flit/internal/reclaim"
)

const (
	// superRoot is the root slot holding the superblock pointer; shard i
	// lives at root slot 1+i.
	superRoot = 0
	// Superblock field indices. fShards is the serving shard count, fBase
	// the count anchored in the heap root region (fixed at New — root
	// regions cannot grow), and a reshard in progress is recorded as
	// fNewShards > fShards with fDirPtr pointing at the shard directory,
	// whose slot j anchors grown shard base+j the way a root slot anchors
	// shard i < base (see reshard.go).
	fMagic      = 0
	fShards     = 1
	fBuckets    = 2
	fBase       = 3
	fNewShards  = 4
	fDirPtr     = 5
	superFields = 6
	// Magic2 identifies a FliT-Store superblock; any other magic is
	// rejected. It fits the 48-bit key window so every policy can persist
	// it untouched.
	Magic2 = uint64(0xF117_5708_E002)
	// MaxShards bounds the shard count.
	MaxShards = 1024
)

// KeyMask is the hashed-key window: HashKey maps strings into
// [0, dstruct.KeyMax).
const KeyMask = dstruct.KeyMax - 1

// ValueMask bounds stored values to the instrumented payload (60 bits);
// Put masks values so policy and structure metadata bits stay free.
const ValueMask = core.PayloadMask

// Options configures a store. Zero values pick defaults.
type Options struct {
	// Shards is the number of independent shard hash tables (default 8).
	Shards int
	// Buckets per shard; default ExpectedKeys/(2*Shards) as in the
	// paper's half-full steady state, floored at 16.
	Buckets int
	// ExpectedKeys sizes memory and buckets (default 1<<16).
	ExpectedKeys int
	// Policy is a core policy identifier (default "flit-ht").
	Policy string
	// HTBytes sizes hashed flit-counter tables (default 1MB).
	HTBytes int
	// Mode is the durability method (default Automatic).
	Mode dstruct.Mode
	// MemWords overrides the derived simulated-memory size.
	MemWords int
	// VirtualClock charges latency costs to per-thread virtual-time
	// counters instead of spin loops (see pmem.Config.VirtualClock):
	// same modeled-cost ordering, no wall-clock burn. Crash tests and
	// smoke matrices — anything that never reads a latency number — run
	// several times faster under it.
	VirtualClock bool
}

func (o Options) withDefaults() Options {
	if o.Shards == 0 {
		o.Shards = 8
	}
	if o.ExpectedKeys == 0 {
		o.ExpectedKeys = 1 << 16
	}
	if o.Buckets == 0 {
		o.Buckets = o.ExpectedKeys / (2 * o.Shards)
		if o.Buckets < 16 {
			o.Buckets = 16
		}
	}
	// hashtable.New rounds bucket counts up to a power of two; round here
	// so the superblock, Opts() and reports describe the actual layout.
	o.Buckets = core.CeilPow2(o.Buckets)
	if o.Policy == "" {
		o.Policy = core.PolicyHT
	}
	return o
}

// memWords sizes the simulated memory for the configured key capacity:
// live nodes, allocation churn headroom, the shard bucket arrays and the
// root/superblock region.
func (o Options) memWords(stride int) int {
	nodes := (uint64(o.ExpectedKeys) + 400_000) * 3 * uint64(stride)
	tables := uint64(o.Shards) * uint64(1+o.Buckets) * uint64(stride)
	return int(nodes + tables + (1 << 17))
}

// Store is a sharded durable key-value store.
type Store struct {
	opts   Options
	mem    *pmem.Memory
	heap   *pheap.Heap
	policy core.Policy
	stride int

	// tables are the shard tables, fixed for the life of the Store: a
	// different shard count is a different Store, built offline by Reshard.
	tables []*hashtable.Table

	// dom is the one reclamation domain every shard table joins, and in
	// which each session registers one handle: a deleted node waits out
	// one grace period of the store, however many shards it has.
	dom *reclaim.Domain

	// sbAddr is the superblock's base address in a store opened by attach,
	// for a reshard's in-place activation and completion words.
	sbAddr pmem.Addr

	// recovered holds the RecoveryStats of the rebuild that produced this
	// store, when it came from Recover rather than New — the observability
	// layer exposes it (flit_recovery_seconds per shard on /metrics).
	recovered *RecoveryStats

	// Flat-combining state (see combine.go), built once by the first
	// Combined session. combCrashed is the whole-process crash flag: the
	// combiner sets it when its crash countdown fires, and every Combined
	// session touching the store thereafter dies with pmem.ErrCrashed;
	// hist holds its per-window histograms, once asked for (WindowHists).
	combOnce    sync.Once
	comb        atomic.Pointer[combiner]
	combCrashed atomic.Bool
	histOnce    sync.Once
	hist        atomic.Pointer[windowHists]
}

// New builds a fresh store: simulated memory, heap with one root per
// shard plus the superblock, the policy, and every shard table.
func New(opts Options) (*Store, error) {
	o := opts.withDefaults()
	if o.Shards < 1 || o.Shards > MaxShards {
		return nil, fmt.Errorf("store: shard count %d outside [1,%d]", o.Shards, MaxShards)
	}
	// The memory is sized by the stride, and the per-line counter policy by
	// the memory: name the stride, then build the one policy the store keeps.
	stride := dstruct.StrideForName(o.Policy)
	words := o.MemWords
	if words == 0 {
		words = o.memWords(stride)
	}
	pol, err := core.NewPolicyByName(o.Policy, words, o.HTBytes)
	if err != nil {
		return nil, err
	}
	mcfg := pmem.DefaultConfig(words)
	mcfg.VirtualClock = o.VirtualClock
	mem := pmem.New(mcfg)
	st := &Store{
		opts:   o,
		mem:    mem,
		heap:   pheap.NewWithRoots(mem, o.Shards+1),
		policy: pol,
		stride: stride,
		tables: make([]*hashtable.Table, o.Shards),
		dom:    reclaim.NewDomain(),
	}
	st.writeSuperblock()
	for i := range st.tables {
		st.tables[i] = hashtable.New(st.cfgFor(1+i), o.Buckets)
	}
	return st, nil
}

// writeSuperblock persists the store's self-description before any shard
// exists, so a crash at any later point still recovers a readable layout.
// It issues raw flushes rather than going through the policy: the
// superblock is format-time metadata (what a mkfs tool writes), and must
// survive even under the no-persist baseline policy — whose data losses
// the crash checker then observes against an intact layout.
func (s *Store) writeSuperblock() {
	cfg := s.cfgFor(superRoot)
	t := s.mem.RegisterThread()
	ar := s.heap.NewArena()
	sb := ar.Alloc(cfg.Words(superFields))
	for f, v := range map[int]uint64{
		fMagic:     Magic2,
		fShards:    uint64(s.opts.Shards),
		fBuckets:   uint64(s.opts.Buckets),
		fBase:      uint64(s.opts.Shards),
		fNewShards: uint64(s.opts.Shards),
		fDirPtr:    0,
	} {
		a := cfg.Field(sb, f)
		t.Store(a, v)
		t.PWB(a)
	}
	// Fence the contents before the root points at them.
	t.PFence()
	root := s.heap.Root(superRoot)
	t.Store(root, uint64(sb))
	t.PWB(root)
	t.PFence()
	ar.Release()
	t.Release()
}

// sbWrite updates one superblock field in place with a raw fenced store —
// format metadata, like writeSuperblock (it must survive even under the
// no-persist baseline policy).
func (s *Store) sbWrite(t *pmem.Thread, f int, v uint64) {
	a := s.sbAddr + pmem.Addr(f*s.stride)
	t.Store(a, v)
	t.PWB(a)
	t.PFence()
}

func (s *Store) cfgFor(rootSlot int) dstruct.Config {
	return dstruct.Config{
		Heap: s.heap, Policy: s.policy, Mode: s.opts.Mode,
		RootSlot: rootSlot, Stride: s.stride, Domain: s.dom,
	}
}

// cfgAt is cfgFor with an explicit anchor address instead of a root slot
// — how shards grown past the root region are addressed (their anchor
// word lives in the persisted shard directory).
func (s *Store) cfgAt(addr pmem.Addr) dstruct.Config {
	return dstruct.Config{
		Heap: s.heap, Policy: s.policy, Mode: s.opts.Mode,
		RootAddr: addr, Stride: s.stride, Domain: s.dom,
	}
}

// Opts returns the options the store was built with (defaults resolved).
func (s *Store) Opts() Options { return s.opts }

// Mem returns the underlying simulated memory.
func (s *Store) Mem() *pmem.Memory { return s.mem }

// Heap returns the persistent heap (its Watermark must be carried across
// a simulated crash).
func (s *Store) Heap() *pheap.Heap { return s.heap }

// Policy returns the persistence policy instance.
func (s *Store) Policy() core.Policy { return s.policy }

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.tables) }

// LastRecovery returns the stats of the shard-parallel rebuild that
// produced this store, or nil when the store was built fresh by New.
// The returned struct is owned by the store; callers must not mutate it.
func (s *Store) LastRecovery() *RecoveryStats { return s.recovered }

// Resources is the store's resource account: what its sessions, its
// combiner and its format and recovery steps hold right now. A store
// with no combiner holds nothing between operations; once a Combined
// session has built the combiner, the combiner's own session holds one
// thread, one arena and one handle for the life of the store.
type Resources struct {
	Threads          int // live pmem threads
	Arenas           int // live heap arenas
	Handles          int // reclamation handles in the store's domain
	CombinedSessions int // open Combined sessions: the combiner's slots
}

// Resources reads the store's resource account, one count after another
// (consistent when no session opens or closes meanwhile).
func (s *Store) Resources() Resources {
	return Resources{
		Threads:          len(s.mem.Threads()),
		Arenas:           s.heap.Arenas(),
		Handles:          s.dom.NumHandles(),
		CombinedSessions: s.CombinedSessions(),
	}
}

// HashKey maps an arbitrary string key into the 48-bit instrumented key
// space with a word-at-a-time multiply-fold hash (see hashKey), masked to
// KeyMask.
//
// The key contract: the 48-bit hash IS the key. The store never sees,
// stores or compares the client's bytes — two distinct client keys whose
// hashes collide are one key to every operation, silently (a Put under
// one overwrites the other, a Delete removes both). The hash is unkeyed
// and public, so the birthday estimate (~n²/2^49 for n random keys,
// negligible at any size the simulation can hold) only covers honest
// keys: anyone who can choose keys — a network peer included — can
// construct colliding pairs offline. The function is also the persisted
// placement rule (shard and bucket of a key derive from it), so changing
// it is a format change; TestHashKeyGolden pins it.
func HashKey(key string) uint64 { return hashKey(key) }

// HashKeyBytes is HashKey for a byte-slice key: identical hash, no
// string conversion, so hot op loops can reuse one key buffer.
func HashKeyBytes(key []byte) uint64 { return hashKey(key) }

// The key hash's seed and its per-stage multipliers (odd, bits evenly
// spread).
const (
	hashSeed = 0x9E3779B97F4A7C15
	hashWord = 0xA0761D6478BD642F
	hashTail = 0xE7037ED1A0B428DB
	hashFin  = 0x8EBC6AF09C88C6E3
)

// mulFold multiplies a by the constant m to 128 bits and folds the halves:
// the low half carries a's bits upward, the high half carries them down.
func mulFold(a, m uint64) uint64 {
	hi, lo := bits.Mul64(a, m)
	return hi ^ lo
}

// hashKey is the one key hash. The state starts at the seed with the key
// length folded in; each 8-byte little-endian word is XORed in and the
// state mul-folded; the 1–7 trailing bytes go in as one more word, with a
// 1 bit above the last byte so that "a" and "a\x00" differ; a last
// mul-fold finishes. The dependent chain is one multiply per word plus
// two (4 on a 20-byte key, where a byte-serial hash pays 20), and the
// multiplier is always a constant, so no input word can zero the state.
//
//flit:hotpath
func hashKey[K Key](key K) uint64 {
	h := hashSeed ^ uint64(len(key))
	for len(key) >= 8 {
		w := uint64(key[0]) | uint64(key[1])<<8 | uint64(key[2])<<16 | uint64(key[3])<<24 |
			uint64(key[4])<<32 | uint64(key[5])<<40 | uint64(key[6])<<48 | uint64(key[7])<<56
		h = mulFold(h^w, hashWord)
		key = key[8:]
	}
	if len(key) > 0 {
		w := uint64(1)
		for j := len(key) - 1; j >= 0; j-- {
			w = w<<8 | uint64(key[j])
		}
		h = mulFold(h^w, hashTail)
	}
	return mulFold(h, hashFin) & KeyMask
}

// shardIdx is the one routing rule, h mod n, for every path that places a
// hashed key on one of n shards: sessions, the combiner and recovery.
// Placement is persisted (a key's shard is where recovery looks for it),
// so the result is exactly h % n for every n; a power-of-two count — the
// default 8 — takes it with a mask instead of a 64-bit hardware divide.
func shardIdx(h uint64, n int) int {
	if n&(n-1) == 0 {
		return int(h & uint64(n-1))
	}
	return int(h % uint64(n))
}

// Snapshot unions all shard snapshots, keyed by hashed key (test and
// checker helper).
//
// Concurrency contract: Snapshot is memory-safe against live sessions —
// every word it reads goes through the simulated memory's atomic
// volatile layer, so it never faults, tears a word, or trips the race
// detector (asserted by TestSnapshotConcurrentMemorySafety under
// -race). It is NOT linearizable against live sessions: the traversal
// reads each chain at a different instant, so a concurrent snapshot can
// mix states — observing a later operation's effect while missing an
// earlier one's on another key — and may double- or under-count keys
// moved by concurrent unlinks. Callers that need a consistent snapshot
// (the crash checkers, recovery-key counting, any before/after
// comparison) must quiesce first: every session's operations
// happens-before the Snapshot call (e.g. via WaitGroup join), as the
// crash harnesses do.
func (s *Store) Snapshot() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for _, sh := range s.tables {
		for k, v := range sh.Snapshot() {
			out[k] = v
		}
	}
	return out
}

// RecoveryStats reports one post-crash rebuild.
type RecoveryStats struct {
	// Elapsed is the wall time of the shard-parallel rebuild, the policy's
	// construction (built beside the gather) included.
	Elapsed time.Duration
	// Shards holds per-shard rebuild times; max(Shards) ≈ Elapsed when
	// enough cores are available, sum(Shards) is the serial cost avoided.
	Shards []time.Duration
	// Keys is the number of keys present after recovery.
	Keys int
	// Rebuilt is the number of bucket chains rewritten: 0 on a clean
	// image, whose chains all stay where they lie; a reshard rewrites
	// every chain of a table once per phase the table takes part in.
	Rebuilt int
}

// geometry is what the superblock says about the shard tables.
type geometry struct {
	// base shards anchor in the heap root region, the rest in the
	// directory at dir.
	base int
	// serving is the committed shard count; target > serving while a
	// reshard is pending, target == serving otherwise.
	serving, target int
	buckets         int
	dir             pmem.Addr
}

// attach opens the store persisted in mem as far as its superblock: the
// recovered heap and the geometry, no policy and no tables yet (Recover
// documents the arguments; rebuild builds both).
func attach(mem *pmem.Memory, watermark uint64, opts Options) (*Store, geometry, error) {
	o := opts.withDefaults()
	var g geometry
	if !slices.Contains(core.PolicyNames(), o.Policy) {
		return nil, g, fmt.Errorf("store: unknown policy %q (known: %v)", o.Policy, core.PolicyNames())
	}
	stride := dstruct.StrideForName(o.Policy)
	// Probe the superblock before the root-region size is known: slot 0's
	// address does not depend on it.
	probeHeap := pheap.RecoverWithRoots(mem, watermark, 1)
	probeCfg := dstruct.Config{Heap: probeHeap, Mode: o.Mode, RootSlot: superRoot, Stride: stride}
	sb := dstruct.Ptr(mem.VolatileWord(probeCfg.Root()))
	if sb == pmem.NilAddr || mem.VolatileWord(probeCfg.Field(sb, fMagic)) != Magic2 {
		return nil, g, fmt.Errorf("store: no superblock in recovered memory (root slot %d = %d)", superRoot, sb)
	}
	field := func(f int) int { return int(mem.VolatileWord(probeCfg.Field(sb, f))) }
	g = geometry{base: field(fBase), serving: field(fShards), target: field(fNewShards), buckets: field(fBuckets), dir: pmem.Addr(field(fDirPtr))}
	if g.base < 1 || g.base > g.serving || g.serving > g.target || g.target > MaxShards {
		return nil, g, fmt.Errorf("store: superblock shard counts base=%d serving=%d target=%d break 1 ≤ base ≤ serving ≤ target ≤ %d", g.base, g.serving, g.target, MaxShards)
	}
	if g.target > g.base && g.dir == pmem.NilAddr {
		return nil, g, fmt.Errorf("store: superblock has grown shards but no directory pointer")
	}
	o.Buckets = g.buckets
	// The carried watermark may predate a reshard's activation (Reshard
	// crashed and is re-run with the arguments it was first given): raise
	// it past what activation allocated and the superblock now references,
	// the directory and the grown shards' table headers. Rebuilt nodes
	// need no such care — rebuild gathers them all before it allocates.
	if g.target > g.base {
		watermark = max(watermark, uint64(dirSlotAddr(g.dir, g.target-g.base, stride)))
		for j := 0; j < g.target-g.base; j++ {
			hdr := dstruct.Ptr(mem.VolatileWord(dirSlotAddr(g.dir, j, stride)))
			watermark = max(watermark, uint64(hdr)+uint64((1+g.buckets)*stride))
		}
	}
	return &Store{
		opts:   o,
		mem:    mem,
		heap:   pheap.RecoverWithRoots(mem, watermark, g.base+1),
		stride: stride,
		dom:    reclaim.NewDomain(),
		sbAddr: sb,
	}, g, nil
}

// newPolicy builds the policy opts name over the store's memory (attach
// has checked the name).
func (s *Store) newPolicy() core.Policy {
	pol, _ := core.NewPolicyByName(s.opts.Policy, s.mem.Words(), s.opts.HTBytes)
	return pol
}

// cfgShard addresses shard i's anchor: a root slot below g.base, a
// directory slot at or above it.
func (s *Store) cfgShard(g geometry, i int) dstruct.Config {
	if i < g.base {
		return s.cfgFor(1 + i)
	}
	return s.cfgAt(dirSlotAddr(g.dir, i-g.base, s.stride))
}

// Recover rebuilds a store from a crash image already loaded into mem.
// The superblock (fixed root slot 0) self-describes shard counts and
// buckets; opts supplies what is deliberately volatile — policy, mode,
// sizing hints — and must match the pre-crash configuration, as with any
// persistent layout. All shards are gathered in parallel, each on its own
// goroutine, and the policy is built beside them; a shard with chains to
// rebuild then rebuilds them on a goroutine with its own pmem thread and
// arena. A crash during a reshard
// (superblock fNewShards > fShards) recovers to the NEW shard count: see
// rebuild.
func Recover(mem *pmem.Memory, watermark uint64, opts Options) (*Store, RecoveryStats, error) {
	st, g, err := attach(mem, watermark, opts)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	return st, st.rebuild(g), nil
}

// rebuild gathers and rebuilds every table g describes and installs them
// as the store's shards.
//
// A clean chain's gather only walks and counts it: its pairs are copied
// into process memory only when a reshard will move them. The policy is
// built during the gather, and the tables are attached under it once
// everything has joined.
//
// Every table is gathered before any is rebuilt (a global barrier): when
// the carried watermark is stale (the process crashed during a previous
// recovery before it could hand the newer watermark forward), a shard's
// fresh rebuild nodes can land on addresses still holding another shard's
// not-yet-gathered chains. Gathering writes nothing, so once every shard
// has its pairs in process memory the rebuilds may clobber those regions
// freely — all but the clean chains recovery keeps where they lie, which
// is why the barrier also raises the watermark past every kept node
// before anything allocates.
//
// With no reshard pending each table rebuilds its dirty buckets from its
// own gather and keeps the clean ones; a table with no dirty bucket
// starts no goroutine. A pending reshard redistributes by the target
// count — a non-doubling one moves keys BETWEEN serving shards too
// (k%old ≠ k%new with both below old) — building the new version beside
// the old one before the old is dropped (MOD's rule), in two barriered
// phases:
//
//	A. every table that GAINS keys is rebuilt to its own whole gather plus
//	   the keys arriving from other tables, and fences;
//	B. every table that LOSES keys is rebuilt down to the keys the target
//	   count assigns it (a table that does neither is rebuilt here, from
//	   its own gather).
//
// So at every persist boundary each key is in at least one table — its old
// one until the end of A, its new one from then on — and, no session
// writing meanwhile, every copy of a key carries the same value. A crash
// anywhere re-runs the redistribution from the same still-pending
// superblock; only the final single-word fShards flip, after B has fenced,
// commits the reshard. A doubling reshard has no table that both gains and
// loses, so it still rebuilds each table exactly once.
func (s *Store) rebuild(g geometry) RecoveryStats {
	n := g.target
	reshard := g.target != g.serving
	rs := RecoveryStats{Shards: make([]time.Duration, n)}
	keys := make([]int, n)
	recovering := make([]*hashtable.Recovery, n)
	s.opts.Shards, s.tables = n, make([]*hashtable.Table, n)
	start := time.Now()
	var wg sync.WaitGroup
	// spawn runs do(i) for table i on a goroutine of its own; wg.Wait joins.
	spawn := func(i int, do func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			do(i)
			rs.Shards[i] += time.Since(t0)
		}()
	}
	// phase runs do(i) for every table in parallel and waits for all.
	phase := func(do func(i int)) {
		for i := range n {
			spawn(i, do)
		}
		wg.Wait()
	}
	for i := range n {
		cfg := s.cfgShard(g, i)
		spawn(i, func(i int) { recovering[i] = hashtable.BeginRecover(cfg, reshard) })
	}
	// The gather reads no policy, so the policy — a flit-HT one allocates
	// and zeroes its counter table — is built beside it (unless a reshard's
	// activation needed it first), and joined before any table is attached.
	if s.policy == nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.policy = s.newPolicy()
		}()
	}
	wg.Wait()

	if !reshard {
		for _, r := range recovering {
			s.heap.RaiseWatermark(uint64(r.End()))
		}
		for i, r := range recovering {
			if r.Dirty() == 0 {
				keys[i] = r.Complete() // keeps every chain: no thread, no write
				continue
			}
			rs.Rebuilt += r.Dirty()
			spawn(i, func(i int) { keys[i] = recovering[i].Complete() })
		}
		wg.Wait()
	} else {
		// in[j] are the pairs other tables hold for shard j, stay[j] the
		// pairs of table j's own gather that remain in it.
		in, stay := make([][]list.Pair, n), make([][]list.Pair, n)
		loses := make([]bool, n)
		for i, r := range recovering {
			for _, p := range r.Pairs() {
				if j := shardIdx(p.Key, n); j != i {
					in[j] = append(in[j], p)
					loses[i] = true
				} else {
					stay[i] = append(stay[i], p)
				}
			}
		}
		gains := func(i int) bool { return len(in[i]) > 0 }
		phase(func(i int) {
			if gains(i) {
				keys[i] = recovering[i].CompleteWith(slices.Concat(in[i], recovering[i].Pairs()))
			}
		})
		phase(func(i int) {
			if loses[i] || !gains(i) {
				keys[i] = recovering[i].CompleteWith(slices.Concat(in[i], stay[i]))
			}
		})
		for i := range n {
			if gains(i) {
				rs.Rebuilt += g.buckets
			}
			if loses[i] || !gains(i) {
				rs.Rebuilt += g.buckets
			}
		}
		t := s.mem.RegisterThread()
		s.sbWrite(t, fShards, uint64(n))
		t.Release()
	}
	for i := range s.tables {
		s.tables[i] = hashtable.Attach(s.cfgShard(g, i))
	}
	rs.Elapsed = time.Since(start)
	for _, k := range keys {
		rs.Keys += k
	}
	s.recovered = &rs
	return rs
}
