// Package workload is a YCSB-style workload subsystem for FliT-Store: the
// six core operation mixes (A–F) plus the counter mix G, uniform /
// zipfian / latest key distributions, and one closed-loop driver (Drive)
// that turns generated ops into windows of store ops, hands them to an
// Executor and records throughput and tail latency (p50/p95/p99). Run
// drives store sessions with it and adds per-policy flush counts from the
// pmem statistics; the network load generator (internal/client) drives
// pipelined connections with it.
//
// Deviations from YCSB proper, forced by the simulated substrate, are
// deliberate and documented: records are fixed 64-bit values rather than
// 10×100B fields, and workload E's range scan is approximated as a burst
// of point reads over consecutive key indices (the store's hashed
// keyspace has no order to scan).
package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
)

// OpKind classifies generated operations.
type OpKind int

// Operation kinds, in YCSB's vocabulary.
const (
	Read OpKind = iota
	Update
	Insert
	ReadModifyWrite
	Scan
	// Add is an atomic increment/decrement (store Add): the generator
	// emits self-cancelling ±1 deltas, the churny counter traffic mix G
	// uses to demonstrate net-delta coalescing.
	Add
	numKinds
)

func (k OpKind) String() string {
	switch k {
	case Read:
		return "read"
	case Update:
		return "update"
	case Insert:
		return "insert"
	case ReadModifyWrite:
		return "rmw"
	case Scan:
		return "scan"
	case Add:
		return "add"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Mix is an operation mix in percent, summing to 100.
type Mix struct {
	Name string
	// Read..Add are the percentages of each kind.
	Read, Update, Insert, RMW, Scan, Add int
}

// Validate checks that the percentages are non-negative and sum to
// exactly 100. Next classifies by cumulative thresholds over a draw in
// [0,100), so an under-100 mix would silently send the remainder to
// the last kind and an over-100 mix would starve the trailing kinds —
// both are configuration bugs, rejected at construction.
func (m Mix) Validate() error {
	for _, p := range []int{m.Read, m.Update, m.Insert, m.RMW, m.Scan, m.Add} {
		if p < 0 {
			return fmt.Errorf("workload: mix %q has a negative percentage", m.Name)
		}
	}
	if sum := m.Read + m.Update + m.Insert + m.RMW + m.Scan + m.Add; sum != 100 {
		return fmt.Errorf("workload: mix %q sums to %d%%, want 100%%", m.Name, sum)
	}
	return nil
}

// Mixes are the YCSB core workloads — A update-heavy, B read-heavy,
// C read-only, D read-latest, E "scan"-heavy (see package comment),
// F read-modify-write — plus G, the churny counter mix: FAA-heavy,
// self-cancelling ±1 deltas, usually run with a small HotKeys knob so
// traffic piles onto one counter. G exists to measure net-delta
// coalescing honestly: its logical op stream nets to ~nothing.
var Mixes = []Mix{
	{Name: "a", Read: 50, Update: 50},
	{Name: "b", Read: 95, Update: 5},
	{Name: "c", Read: 100},
	{Name: "d", Read: 95, Insert: 5},
	{Name: "e", Scan: 95, Insert: 5},
	{Name: "f", Read: 50, RMW: 50},
	{Name: "g", Read: 5, Add: 95},
}

// MixByName resolves a workload letter (a–g, case-insensitive via exact
// lowercase match).
func MixByName(name string) (Mix, error) {
	for _, m := range Mixes {
		if m.Name == name {
			return m, nil
		}
	}
	return Mix{}, fmt.Errorf("workload: unknown mix %q (known: a-g)", name)
}

// Key distribution identifiers.
const (
	DistUniform = "uniform"
	DistZipfian = "zipfian"
	DistLatest  = "latest"
)

// DefaultZipfS is the default zipfian skew. YCSB's canonical constant is
// 0.99 but Go's rand.Zipf requires s > 1; 1.1 gives a comparably hot head.
const DefaultZipfS = 1.1

// KeyPrefix starts every canonical workload key; the index follows as a
// zero-padded 16-digit decimal (YCSB's "user<id>" convention).
const KeyPrefix = "user"

// keyDigits is the fixed index width. 10^16 > 2^48, so every index the
// 48-bit keyspace can hold fits without widening.
const keyDigits = 16

// AppendKey appends key index i's canonical form to dst and returns the
// extended slice — the allocation-free spelling of Key for hot op loops,
// which reuse one buffer per worker (strconv-style fixed-width append;
// fmt.Sprintf was the workload runner's dominant allocation).
func AppendKey(dst []byte, i uint64) []byte {
	if i >= 1e16 {
		// Wider than the fixed field (only reachable above the 48-bit
		// keyspace): fall back to plain decimal, as %016d would.
		return strconv.AppendUint(append(dst, KeyPrefix...), i, 10)
	}
	var buf [keyDigits]byte
	for j := keyDigits - 1; j >= 0; j-- {
		buf[j] = byte('0' + i%10)
		i /= 10
	}
	return append(append(dst, KeyPrefix...), buf[:]...)
}

// Key renders key index i as its canonical string form, the store-facing
// key the generator hands to sessions.
func Key(i uint64) string { return string(AppendKey(make([]byte, 0, len(KeyPrefix)+20), i)) }

// Op is one generated operation over key indices.
type Op struct {
	Kind OpKind
	// Key is a key index; pass it through Key for the store-facing form.
	Key uint64
	// ScanLen is the point-read burst length (Scan only).
	ScanLen int
	// Delta is the two's-complement increment (Add only): ±1, drawn with
	// equal probability so the stream self-cancels in expectation.
	Delta uint64
}

// Generator emits one thread's operation stream. Not safe for concurrent
// use; the keyspace high-water mark (limit) is shared across generators so
// inserts by any thread become readable by all.
type Generator struct {
	mix     Mix
	dist    string
	rng     *rand.Rand
	zipf    *rand.Zipf
	zipfS   float64
	zipfMax uint64 // the zipf's imax: draws cover [0, zipfMax]
	limit   *atomic.Uint64
	scanMax int
	hotKeys uint64
}

// NewGenerator builds a generator for mix over dist. records is the
// initial keyspace size; limit (shared across threads, pre-set to
// records) tracks growth from inserts. zipfS ≤ 1 selects DefaultZipfS.
// hotKeys, when non-zero, confines every non-insert key draw to the
// uniform window [0, hotKeys) regardless of dist — the single-hot-key
// knob (hotKeys=1) that concentrates mix G's counter churn. The mix
// must sum to 100 (Mix.Validate).
func NewGenerator(mix Mix, dist string, zipfS float64, records uint64, limit *atomic.Uint64, scanMax int, hotKeys uint64, seed int64) (*Generator, error) {
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	if records == 0 {
		return nil, fmt.Errorf("workload: empty keyspace")
	}
	if zipfS <= 1 {
		zipfS = DefaultZipfS
	}
	if scanMax < 1 {
		scanMax = 16
	}
	rng := rand.New(rand.NewSource(seed))
	g := &Generator{mix: mix, dist: dist, rng: rng, zipfS: zipfS, limit: limit, scanMax: scanMax, hotKeys: hotKeys}
	switch dist {
	case DistUniform:
	case DistZipfian, DistLatest:
		g.zipfMax = records - 1
		g.zipf = rand.NewZipf(rng, zipfS, 1, g.zipfMax)
	default:
		return nil, fmt.Errorf("workload: unknown distribution %q (uniform|zipfian|latest)", dist)
	}
	return g, nil
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	r := g.rng.Intn(100)
	var kind OpKind
	switch {
	case r < g.mix.Read:
		kind = Read
	case r < g.mix.Read+g.mix.Update:
		kind = Update
	case r < g.mix.Read+g.mix.Update+g.mix.Insert:
		kind = Insert
	case r < g.mix.Read+g.mix.Update+g.mix.Insert+g.mix.RMW:
		kind = ReadModifyWrite
	case r < g.mix.Read+g.mix.Update+g.mix.Insert+g.mix.RMW+g.mix.Scan:
		kind = Scan
	default:
		kind = Add
	}
	if kind == Insert {
		// Claim a fresh key index past the current high-water mark.
		return Op{Kind: Insert, Key: g.limit.Add(1) - 1}
	}
	op := Op{Kind: kind, Key: g.pick()}
	switch kind {
	case Scan:
		op.ScanLen = 1 + g.rng.Intn(g.scanMax)
	case Add:
		op.Delta = 1
		if g.rng.Intn(2) == 0 {
			op.Delta = ^uint64(0) // -1
		}
	}
	return op
}

// pick draws a key index from the configured distribution over the
// current keyspace.
func (g *Generator) pick() uint64 {
	if g.hotKeys > 0 {
		// Hot-key mode: every non-insert draw lands uniformly in the
		// pinned window, overriding the distribution — the knob is about
		// contention on a few counters, not popularity shape.
		return uint64(g.rng.Int63()) % g.hotKeys
	}
	n := g.limit.Load()
	// Widen the zipf when inserts outgrow the sampled range: rand.Zipf
	// draws from the fixed window [0, imax] set at construction, so a
	// frozen range would leave scramble(z) % n able to reach only the
	// original `records` distinct keys no matter how far the keyspace
	// grows (YCSB-D/E would hammer a stale subset forever). Widening is
	// geometric — regenerate at 2n — so the rebuild cost amortizes to
	// O(log growth); between widenings the newest keys above zipfMax are
	// reachable only through the modulo wrap, a bounded (< 2x) staleness
	// the test suite pins.
	if g.zipf != nil && n-1 > g.zipfMax {
		g.zipfMax = 2*n - 1
		g.zipf = rand.NewZipf(g.rng, g.zipfS, 1, g.zipfMax)
	}
	switch g.dist {
	case DistZipfian:
		// Scrambled zipfian, as YCSB does: the popularity ranks are
		// scattered across the key space (and hence the shards) so skew
		// stresses contention, not one unlucky shard.
		return scramble(g.zipf.Uint64()) % n
	case DistLatest:
		// Wrap instead of clamping: after widening, draws in [n, zipfMax]
		// would otherwise all clamp to recency offset n-1 — piling a fake
		// hotspot onto the oldest key (key 0). The wrapped tail mass is
		// small and zipf-shaped over the whole range; below the widening
		// threshold (zipfMax < n) the modulo is the identity.
		d := g.zipf.Uint64() % n
		return n - 1 - d
	default:
		return uint64(g.rng.Int63()) % n
	}
}

// scramble is a 64-bit finalizer (Murmur3 fmix64).
func scramble(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
