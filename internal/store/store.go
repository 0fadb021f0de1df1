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
	"sync"
	"sync/atomic"
	"time"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/dstruct/hashtable"
	"flit/internal/dstruct/list"
	"flit/internal/pheap"
	"flit/internal/pmem"
)

const (
	// superRoot is the root slot holding the superblock pointer; shard i
	// lives at root slot 1+i.
	superRoot = 0
	// Superblock field indices. fMagic..fBuckets are the v1 layout;
	// fBase..fDirPtr extend it for online shard growth (v2, Magic2):
	// fShards is the serving shard count, fBase the count anchored in the
	// heap root region (fixed at New — root regions cannot grow), and a
	// split in progress is recorded as fNewShards > fShards with fDirPtr
	// pointing at the shard directory, whose slot j anchors grown shard
	// base+j the way a root slot anchors shard i < base.
	fMagic       = 0
	fShards      = 1
	fBuckets     = 2
	fBase        = 3
	fNewShards   = 4
	fDirPtr      = 5
	superFields  = 3
	superFields2 = 6
	// Magic identifies a v1 FliT-Store superblock (fixed shard count). It
	// fits the 48-bit key window so every policy can persist it untouched.
	Magic = uint64(0xF117_5708_E001)
	// Magic2 identifies a v2 superblock (online shard growth).
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
	// Invalidate models the invalidating clwb of Cascade Lake.
	Invalidate bool
	// VirtualClock charges latency costs to per-thread virtual-time
	// counters instead of spin loops (see pmem.Config.VirtualClock):
	// same modeled-cost ordering, no wall-clock burn. Crash tests and
	// smoke matrices — anything that never reads a latency number — run
	// several times faster under it.
	VirtualClock bool
	// CombineWindow is the per-shard flat combiner's target operation
	// count per combined window (default 32): the combiner lingers,
	// re-sweeping the announcement slots, until it has collected this
	// many operations or the shard goes idle, then commits the window
	// under one fence. Larger windows amortize the fence further at the
	// cost of announcement latency.
	CombineWindow int
	// CombineNoCoalesce disables VSA-style net-delta coalescing in the
	// combiner: every OpAdd executes individually (and returns its real
	// result). The bench matrix uses it as the honest baseline the
	// coalesced mix-G cells are compared against.
	CombineNoCoalesce bool
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
	if o.CombineWindow == 0 {
		o.CombineWindow = 32
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

	// lay is the serving layout: the shard tables plus, while an online
	// split migrates, the migration descriptor (see split.go). Sessions
	// load it per operation; it is replaced atomically when a split
	// starts or completes.
	lay atomic.Pointer[layout]

	// baseShards is the shard count anchored in the heap root region,
	// fixed at New; shards grown later anchor in the persisted directory.
	baseShards int
	// sbAddr is the superblock's base address, for in-place field updates
	// (the split activation and completion words).
	sbAddr pmem.Addr
	// growMu serializes Split against combiner initialization: the flat
	// combiners capture the shard list at build time, so a store that
	// combines cannot grow and a store mid-split cannot start combining.
	growMu sync.Mutex

	// recovered holds the RecoveryStats of the rebuild that produced this
	// store, when it came from Recover rather than New — the observability
	// layer exposes it (flit_recovery_seconds per shard on /metrics).
	recovered *RecoveryStats

	// Flat-combining state (see combine.go), built lazily by the first
	// Combined session, under growMu (combiners capture the shard list, so
	// they wait out any in-flight split and block later ones). combCrashed
	// is the whole-process crash flag: a combiner or migrator whose crash
	// countdown fires sets it, and every session touching the store
	// thereafter dies with pmem.ErrCrashed.
	combiners   []*combiner
	combCrashed atomic.Bool
}

// New builds a fresh store: simulated memory, heap with one root per
// shard plus the superblock, the policy, and every shard table.
func New(opts Options) (*Store, error) {
	o := opts.withDefaults()
	if o.Shards < 1 || o.Shards > MaxShards {
		return nil, fmt.Errorf("store: shard count %d outside [1,%d]", o.Shards, MaxShards)
	}
	probe, err := core.NewPolicyByName(o.Policy, 1<<10, o.HTBytes)
	if err != nil {
		return nil, err
	}
	stride := dstruct.StrideFor(probe)
	words := o.MemWords
	if words == 0 {
		words = o.memWords(stride)
	}
	mcfg := pmem.DefaultConfig(words)
	mcfg.InvalidateOnPWB = o.Invalidate
	mcfg.VirtualClock = o.VirtualClock
	mem := pmem.New(mcfg)
	pol, err := core.NewPolicyByName(o.Policy, mem.Words(), o.HTBytes)
	if err != nil {
		return nil, err
	}
	st := &Store{
		opts:       o,
		mem:        mem,
		heap:       pheap.NewWithRoots(mem, o.Shards+1),
		policy:     pol,
		stride:     stride,
		baseShards: o.Shards,
	}
	st.writeSuperblock()
	tables := make([]*hashtable.Table, o.Shards)
	for i := range tables {
		tables[i] = hashtable.New(st.cfgFor(1+i), o.Buckets)
	}
	st.lay.Store(&layout{tables: tables})
	return st, nil
}

// writeSuperblock persists the store's self-description before any shard
// exists, so a crash at any later point still recovers a readable layout.
// It issues raw flushes rather than going through the policy: the
// superblock is format-time metadata (what a mkfs tool writes), and must
// survive even under the no-persist baseline policy — whose data losses
// the crash checker then observes against an intact layout.
//
//flit:rawpersist format-time metadata with its own store-PWB-fence discipline
func (s *Store) writeSuperblock() {
	cfg := s.cfgFor(superRoot)
	t := s.mem.RegisterThread()
	ar := s.heap.NewArena()
	sb := ar.Alloc(cfg.Words(superFields2))
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
	s.sbAddr = sb
	ar.Release()
	t.Release()
}

// sbField returns the address of superblock field f.
func (s *Store) sbField(f int) pmem.Addr {
	return s.sbAddr + pmem.Addr(f*s.stride)
}

// sbWrite updates one superblock field in place with a raw fenced store —
// format metadata, like writeSuperblock (it must survive even under the
// no-persist baseline policy).
//
//flit:rawpersist format-time metadata with its own store-PWB-fence discipline
func (s *Store) sbWrite(t *pmem.Thread, f int, v uint64) {
	a := s.sbField(f)
	t.Store(a, v)
	t.PWB(a)
	t.PFence()
}

func (s *Store) cfgFor(rootSlot int) dstruct.Config {
	return dstruct.Config{
		Heap: s.heap, Policy: s.policy, Mode: s.opts.Mode,
		RootSlot: rootSlot, Stride: s.stride,
	}
}

// cfgAt is cfgFor with an explicit anchor address instead of a root slot
// — how shards grown past the root region are addressed (their anchor
// word lives in the persisted shard directory).
func (s *Store) cfgAt(addr pmem.Addr) dstruct.Config {
	return dstruct.Config{
		Heap: s.heap, Policy: s.policy, Mode: s.opts.Mode,
		RootAddr: addr, Stride: s.stride,
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

// NumShards returns the serving shard count (the pre-split count while a
// migration is in flight; it jumps to the target count on completion).
func (s *Store) NumShards() int { return len(s.lay.Load().tables) }

// LastRecovery returns the stats of the shard-parallel rebuild that
// produced this store, or nil when the store was built fresh by New.
// The returned struct is owned by the store; callers must not mutate it.
func (s *Store) LastRecovery() *RecoveryStats { return s.recovered }

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
// hashed key on one of n shards: sessions, combiners, the split migrator
// and recovery. Placement is persisted (a key's shard is where recovery
// looks for it), so the result is exactly h % n for every n; a power-of-
// two count — the default 8 — takes it with a mask instead of a 64-bit
// hardware divide.
func shardIdx(h uint64, n int) int {
	if n&(n-1) == 0 {
		return int(h & uint64(n-1))
	}
	return int(h % uint64(n))
}

func (s *Store) shardOf(h uint64) int { return shardIdx(h, len(s.lay.Load().tables)) }

// ShardOf returns the shard index serving key.
func (s *Store) ShardOf(key []byte) int { return s.shardOf(HashKeyBytes(key)) }

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
	lay := s.lay.Load()
	out := make(map[uint64]uint64)
	for _, sh := range lay.tables {
		for k, v := range sh.Snapshot() {
			out[k] = v
		}
	}
	if m := lay.mig; m != nil {
		// Mid-split, a key being moved can exist in both its old shard
		// and its target: the target copy is authoritative (session Puts
		// upsert there, shadowing the stale old copy), so overlay it last.
		for _, sh := range m.dir {
			for k, v := range sh.Snapshot() {
				out[k] = v
			}
		}
	}
	return out
}

// RecoveryStats reports one post-crash rebuild.
type RecoveryStats struct {
	// Elapsed is the wall time of the shard-parallel rebuild.
	Elapsed time.Duration
	// Shards holds per-shard rebuild times; max(Shards) ≈ Elapsed when
	// enough cores are available, sum(Shards) is the serial cost avoided.
	Shards []time.Duration
	// Keys is the number of keys present after recovery.
	Keys int
}

// Recover rebuilds a store from a crash image already loaded into mem.
// The superblock (fixed root slot 0) self-describes shard count and
// buckets; opts supplies what is deliberately volatile — policy, mode,
// sizing hints — and must match the pre-crash configuration, as with any
// persistent layout. All shards recover in parallel, each on its own
// goroutine with its own pmem thread and arena.
//
// A crash mid-split (superblock fNewShards > fShards) recovers to the
// POST-split layout: every table — old shards and split targets alike —
// is gathered first (global barrier), then rebuilt in place with the keys
// the target shard count assigns it, preferring a target table's copy of
// a key over a stale old-shard copy (session Puts during migration upsert
// the target only, and the deletion order old-then-new means a key caught
// mid-delete survives nowhere it shouldn't). The rule is applied
// uniformly to every shard, so it needs no migration cursor and is
// idempotent: a crash during this recovery re-runs it from the same
// still-active superblock, and only the final single-word fShards flip —
// after every rebuild has fenced — marks the split complete.
func Recover(mem *pmem.Memory, watermark uint64, opts Options) (*Store, RecoveryStats, error) {
	o := opts.withDefaults()
	var rs RecoveryStats
	probe, err := core.NewPolicyByName(o.Policy, mem.Words(), o.HTBytes)
	if err != nil {
		return nil, rs, err
	}
	stride := dstruct.StrideFor(probe)
	// Probe the superblock before the root-region size is known: slot 0's
	// address does not depend on it.
	probeHeap := pheap.RecoverWithRoots(mem, watermark, 1)
	probeCfg := dstruct.Config{Heap: probeHeap, Policy: probe, Mode: o.Mode, RootSlot: superRoot, Stride: stride}
	sb := dstruct.Ptr(mem.VolatileWord(probeCfg.Root()))
	if sb == pmem.NilAddr {
		return nil, rs, fmt.Errorf("store: no superblock in recovered memory (root slot %d = %d)", superRoot, sb)
	}
	magic := mem.VolatileWord(probeCfg.Field(sb, fMagic))
	if magic != Magic && magic != Magic2 {
		return nil, rs, fmt.Errorf("store: no superblock in recovered memory (root slot %d = %d)", superRoot, sb)
	}
	shards := int(mem.VolatileWord(probeCfg.Field(sb, fShards)))
	buckets := int(mem.VolatileWord(probeCfg.Field(sb, fBuckets)))
	if shards < 1 || shards > MaxShards {
		return nil, rs, fmt.Errorf("store: superblock shard count %d outside [1,%d]", shards, MaxShards)
	}
	// v1 superblocks predate shard growth: base == serving == target.
	base, newShards := shards, shards
	var dir pmem.Addr
	if magic == Magic2 {
		base = int(mem.VolatileWord(probeCfg.Field(sb, fBase)))
		newShards = int(mem.VolatileWord(probeCfg.Field(sb, fNewShards)))
		dir = pmem.Addr(mem.VolatileWord(probeCfg.Field(sb, fDirPtr)))
		if base < 1 || base > shards || newShards < shards || newShards > MaxShards {
			return nil, rs, fmt.Errorf("store: superblock shard geometry base=%d serving=%d target=%d invalid", base, shards, newShards)
		}
		if newShards > base && dir == pmem.NilAddr {
			return nil, rs, fmt.Errorf("store: superblock has grown shards but no directory pointer")
		}
	}
	o.Shards, o.Buckets = newShards, buckets

	st := &Store{
		opts:       o,
		mem:        mem,
		heap:       pheap.RecoverWithRoots(mem, watermark, base+1),
		policy:     probe,
		stride:     stride,
		baseShards: base,
		sbAddr:     sb,
	}
	// cfgShard addresses shard i's anchor: a root slot below base, a
	// directory slot at or above it.
	cfgShard := func(i int) dstruct.Config {
		if i < base {
			return st.cfgFor(1 + i)
		}
		return st.cfgAt(dirSlotAddr(dir, i-base, stride))
	}

	rs.Shards = make([]time.Duration, newShards)
	keys := make([]int, newShards)
	tables := make([]*hashtable.Table, newShards)
	start := time.Now()
	// Two-phase, with a global barrier between everyone's gather and
	// anyone's rebuild: when the carried watermark is stale (the process
	// crashed during a previous recovery before it could hand the newer
	// watermark forward), a shard's fresh rebuild nodes can land on
	// addresses still holding another shard's not-yet-gathered chains.
	// Gathering writes nothing, so once every shard has its pairs in
	// process memory the rebuilds may clobber those regions freely. The
	// mid-split key redistribution reuses the same barrier: it needs every
	// table's pairs before any table's final contents are known.
	recovering := make([]*hashtable.Recovery, newShards)
	var wg sync.WaitGroup
	for i := 0; i < newShards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			recovering[i] = hashtable.BeginRecover(cfgShard(i))
			rs.Shards[i] = time.Since(t0)
		}(i)
	}
	wg.Wait()

	// An idle store keeps each table's own gather. A crashed split
	// redistributes by the target shard count — a non-doubling split can
	// move keys BETWEEN serving shards (k%oldN ≠ k%newN with both below
	// oldN), so every serving shard's contents are recomputed, not kept.
	// finals[j] lists shard j's pairs weakest first, as the rebuild keeps
	// the last copy of a key: stale pre-move copies from the serving tables,
	// then the table's own, authoritative gather — all of it for a split
	// target, the keys that hash to it for a serving shard.
	var finals [][]list.Pair
	if newShards > shards {
		finals = make([][]list.Pair, newShards)
		for i := shards - 1; i >= 0; i-- {
			for _, p := range recovering[i].Pairs() {
				if nj := shardIdx(p.Key, newShards); nj != i {
					finals[nj] = append(finals[nj], p)
				}
			}
		}
		for i := range finals {
			for _, p := range recovering[i].Pairs() {
				if i >= shards || shardIdx(p.Key, newShards) == i {
					finals[i] = append(finals[i], p)
				}
			}
		}
	}

	for i := 0; i < newShards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			if finals == nil {
				tables[i], keys[i] = recovering[i].Complete()
			} else {
				tables[i], keys[i] = recovering[i].CompleteWith(finals[i])
			}
			rs.Shards[i] += time.Since(t0)
		}(i)
	}
	wg.Wait()
	if newShards > shards {
		// Every rebuild has fenced; the single-word serving-count flip is
		// the split's idempotent commit point.
		t := mem.RegisterThread()
		st.sbWrite(t, fShards, uint64(newShards))
		t.Release()
	}
	st.lay.Store(&layout{tables: tables})
	rs.Elapsed = time.Since(start)
	for _, k := range keys {
		rs.Keys += k
	}
	kept := rs
	st.recovered = &kept
	return st, rs, nil
}
