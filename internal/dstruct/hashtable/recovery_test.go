package hashtable

import (
	"testing"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/dstruct/dstest"
	"flit/internal/dstruct/list"
	"flit/internal/pmem"
)

// The persisted list-node format (key, value, next link), which a test
// that corrupts images has to know.
const (
	nodeKey  = 0
	nodeNext = list.NumFields - 1
)

// chainNodes follows bucket b's chain in raw memory and returns its node
// addresses, failing the test instead of spinning when the chain does not
// end within limit nodes.
func chainNodes(t *testing.T, tb *Table, b, limit int) []pmem.Addr {
	t.Helper()
	mem := tb.cfg.Heap.Mem()
	var nodes []pmem.Addr
	for n := dstruct.Ptr(mem.VolatileWord(tb.cfg.Field(tb.base, 1+b))); n != pmem.NilAddr; n = dstruct.Ptr(mem.VolatileWord(tb.cfg.Field(n, nodeNext))) {
		if nodes = append(nodes, n); len(nodes) > limit {
			t.Fatalf("bucket %d: chain does not end within %d nodes", b, limit)
		}
	}
	return nodes
}

// TestRecoveryIgnoresCycles runs the list package's corrupt shapes through
// the two-phase table recovery: a ρ-shaped chain, a self-loop and a cycle
// through a marked node, each in its own bucket of one table. Recovery
// must terminate, count each distinct unmarked key once, and rebuild
// nil-terminated ascending chains with one node per key.
func TestRecoveryIgnoresCycles(t *testing.T) {
	cfg := dstest.Configs(1<<16, false)[0]
	const buckets, keys = 4, 64
	tb := New(cfg, buckets)
	th := tb.Open(dstruct.ThreadOpts{})
	for k := uint64(1); k <= keys; k++ {
		th.Insert(k, k*10)
	}
	th.Close()

	mem := cfg.Heap.Mem()
	raw := mem.RegisterThread()
	link := func(from, to pmem.Addr, flag uint64) { raw.Store(cfg.Field(from, nodeNext), uint64(to)|flag) }
	key := func(n pmem.Addr) uint64 { return mem.VolatileWord(cfg.Field(n, nodeKey)) }
	want := tb.Snapshot()
	drop := func(nodes ...pmem.Addr) {
		for _, n := range nodes {
			delete(want, key(n))
		}
	}
	var chains [buckets][]pmem.Addr
	for b := range chains {
		if chains[b] = chainNodes(t, tb, b, keys); len(chains[b]) < 6 {
			t.Fatalf("bucket %d holds %d nodes, the shapes need 6", b, len(chains[b]))
		}
	}
	// Bucket 0, ρ: the last node links back to the third. Nothing is lost.
	c := chains[0]
	link(c[len(c)-1], c[2], 0)
	// Bucket 1, self-loop on the fourth node: everything behind it is cut off.
	c = chains[1]
	link(c[3], c[3], 0)
	drop(c[4:]...)
	// Bucket 2, a marked node inside the loop and a marked node closing it:
	// both are deleted keys.
	c = chains[2]
	link(c[2], c[3], core.MarkBit)
	link(c[len(c)-1], c[1], core.MarkBit)
	drop(c[2], c[len(c)-1])
	// Bucket 3 stays intact.

	rec := BeginRecover(cfg)
	if got := len(rec.Pairs()); got != len(want) {
		t.Fatalf("gather returned %d pairs, want %d (each distinct unmarked node once)", got, len(want))
	}
	tb2, n := rec.Complete()
	if n != len(want) {
		t.Fatalf("Complete reported %d keys, want %d", n, len(want))
	}
	got := make(map[uint64]uint64)
	for b := 0; b < buckets; b++ {
		var ks []uint64
		for _, nd := range chainNodes(t, tb2, b, len(want)) {
			ks = append(ks, key(nd))
			got[key(nd)] = mem.VolatileWord(cfg.Field(nd, nodeKey+1))
		}
		for i := 1; i < len(ks); i++ {
			if ks[i-1] >= ks[i] { // equal keys are one key in two nodes
				t.Fatalf("bucket %d rebuilt as %v: not strictly ascending", b, ks)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("rebuilt chains hold %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d recovered as %d, want %d", k, got[k], v)
		}
	}
}

// TestCompleteWithPartitions: CompleteWith rebuilds the table to hold
// exactly the pairs it is handed — whatever the gather found — bucketed by
// the table's own hash, the last copy of a key winning.
func TestCompleteWithPartitions(t *testing.T) {
	cfg := dstest.Configs(1<<16, false)[0]
	tb := New(cfg, 8)
	th := tb.Open(dstruct.ThreadOpts{})
	for k := uint64(0); k < 40; k++ {
		th.Insert(k, 1)
	}
	th.Close()

	var pairs []list.Pair
	want := make(map[uint64]uint64)
	for k := uint64(100); k < 200; k++ {
		pairs = append(pairs, list.Pair{Key: k, Val: k})
		want[k] = k
	}
	for k := uint64(100); k < 200; k += 7 {
		pairs = append(pairs, list.Pair{Key: k, Val: k + 1}) // later copy wins
		want[k] = k + 1
	}
	tb2, n := BeginRecover(cfg).CompleteWith(pairs)
	if n != len(want) {
		t.Fatalf("CompleteWith reported %d keys, want %d", n, len(want))
	}
	got := tb2.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("rebuilt table holds %d keys, want %d", len(got), len(want))
	}
	th2 := tb2.Open(dstruct.ThreadOpts{})
	for k, v := range want {
		if g, ok := th2.Get(k); !ok || g != v {
			t.Fatalf("Get(%d) = (%d,%v) after CompleteWith, want (%d,true): wrong bucket or stale copy", k, g, ok, v)
		}
	}
}
