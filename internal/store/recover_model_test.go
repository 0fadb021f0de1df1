package store

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/pmem"
)

// rawImage reads a store's persistent words knowing only the format — the
// root slots, the superblock and directory fields, the table header
// (bucket count, then one link per bucket) and the list node (key, value,
// next link with the Harris mark) — and none of the recovery code. It is
// the reference TestRecoverMatchesImageModel and the corrupt-image test
// compare store.Recover with.
type rawImage struct {
	word   func(pmem.Addr) uint64
	root   func(slot int) pmem.Addr
	stride int
}

func imageOf(img []uint64, st *Store) rawImage {
	return rawImage{word: func(a pmem.Addr) uint64 { return img[a] }, root: st.heap.Root, stride: st.stride}
}

func memoryOf(st *Store) rawImage {
	return rawImage{word: st.mem.VolatileWord, root: st.heap.Root, stride: st.stride}
}

func (r rawImage) field(base pmem.Addr, f int) uint64 { return r.word(base + pmem.Addr(f*r.stride)) }

// tables returns the serving shard count and the header address of every
// table the superblock describes: the serving shards, then the targets of
// a reshard the crash interrupted.
func (r rawImage) tables() (serving int, hdrs []pmem.Addr) {
	sb := dstruct.Ptr(r.word(r.root(superRoot)))
	serving, base, target := int(r.field(sb, fShards)), int(r.field(sb, fBase)), int(r.field(sb, fNewShards))
	dir := pmem.Addr(r.field(sb, fDirPtr))
	for i := 0; i < target; i++ {
		anchor := dirSlotAddr(dir, i-base, r.stride)
		if i < base {
			anchor = r.root(1 + i)
		}
		hdrs = append(hdrs, dstruct.Ptr(r.word(anchor)))
	}
	return serving, hdrs
}

// rawNode is one unmarked node as a chain walk meets it.
type rawNode struct {
	addr     pmem.Addr
	key, val uint64
}

// chains returns, bucket by bucket, the unmarked nodes of the table at
// hdr in chain order. A visited-set ends the walk of a cyclic chain at the
// first node met twice.
func (r rawImage) chains(hdr pmem.Addr) [][]rawNode {
	out := make([][]rawNode, r.field(hdr, 0))
	for b := range out {
		seen := make(map[pmem.Addr]bool)
		for n := dstruct.Ptr(r.field(hdr, 1+b)); n != pmem.NilAddr && !seen[n]; {
			seen[n] = true
			next := r.field(n, 2)
			if next&core.MarkBit == 0 {
				out[b] = append(out[b], rawNode{n, r.field(n, 0), r.field(n, 1)})
			}
			n = dstruct.Ptr(next)
		}
	}
	return out
}

// contents flattens one table's chains into a map, a later node of a key
// overwriting an earlier one.
func (r rawImage) contents(hdr pmem.Addr) map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for _, chain := range r.chains(hdr) {
		for _, n := range chain {
			out[n.key] = n.val
		}
	}
	return out
}

// model returns what each shard must hold after recovery. An idle store
// keeps every table's own contents. After an interrupted reshard a key
// lives in the shard the target count assigns it, whichever tables held
// it: no session writes during a reshard, so all copies of a key agree
// (own reports every table's contents as the image has them).
func (r rawImage) model() (final, own []map[uint64]uint64) {
	serving, hdrs := r.tables()
	target := len(hdrs)
	own = make([]map[uint64]uint64, target)
	for i, hdr := range hdrs {
		own[i] = r.contents(hdr)
	}
	if serving == target {
		return own, own
	}
	final = make([]map[uint64]uint64, target)
	for i := range final {
		final[i] = make(map[uint64]uint64)
	}
	for i := range own {
		for k, v := range own[i] {
			nj := int(k % uint64(target))
			if w, has := final[nj][k]; has && w != v {
				panic(fmt.Sprintf("key %#x has values %d and %d in two tables of one image", k, w, v))
			}
			final[nj][k] = v
		}
	}
	return final, own
}

// rebuilds lists the node count of every table rebuild a recovery of the
// image performs. An idle store rebuilds each table once. An interrupted
// reshard rebuilds a table that gains keys to its own contents plus the
// arrivals, then every table that loses keys (or did not gain) to its
// final contents — so a non-doubling 4→6, where each old shard both gains
// and loses, writes each old shard twice, the first time at more than its
// final size.
func rebuilds(final, own []map[uint64]uint64) []int {
	var out []int
	for j := range final {
		grown, gains, loses := maps.Clone(own[j]), false, false
		for i := range own {
			for k, v := range own[i] {
				if to := int(k % uint64(len(own))); to == j && i != j {
					grown[k], gains = v, true
				} else if to != j && i == j {
					loses = true
				}
			}
		}
		if gains {
			out = append(out, len(grown))
		}
		if loses || !gains {
			out = append(out, len(final[j]))
		}
	}
	return out
}

// clean reports whether bucket b of the table at hdr is already what a
// rebuild writes — the head and every next link without a flag bit, keys
// strictly ascending to nil, and at stride 2 every counter word beside a
// field zero — and returns one past its highest node.
func (r rawImage) clean(hdr pmem.Addr, b int) (bool, pmem.Addr) {
	link := r.field(hdr, 1+b)
	ok, end, prev := link&^core.PayloadMask == 0, pmem.Addr(0), uint64(0)
	seen := make(map[pmem.Addr]bool)
	n := dstruct.Ptr(link)
	for ; n != pmem.NilAddr && !seen[n]; n = dstruct.Ptr(link) {
		link = r.field(n, 2)
		key := r.field(n, 0)
		ok = ok && link&^core.PayloadMask == 0 && (len(seen) == 0 || key > prev)
		for w := 0; w < 3*r.stride; w++ {
			ok = ok && (w%r.stride == 0 || r.word(n+pmem.Addr(w)) == 0)
		}
		seen[n], prev, end = true, key, max(end, n+pmem.Addr(3*r.stride))
	}
	return ok && n == pmem.NilAddr, end // a walk that met a node twice loops
}

// checkRecovered compares a recovered store with the model of the image
// it was recovered from: per-shard contents, the reported key count, the
// chains, and the heap watermark.
//
// A bucket the image holds clean (rawImage.clean) stays where it lies,
// node for node; every other one is rebuilt, strictly ascending (so one
// node per key). Recovery first raises the watermark to the line past the
// highest kept node when that is above the carried one. From there every
// rebuilt node is one size-classed allocation from a per-rebuild arena
// that takes whole chunks from the bump pointer or reuses a finished
// rebuild's chunk tail, so the watermark advances by between ⌈all nodes
// written / chunk⌉ and Σ⌈a rebuild's nodes / chunk⌉ chunks (see rebuilds)
// — one number for a single shard, where the rebuild order (dirty buckets
// ascending, keys descending) additionally fixes every rebuilt node's
// address. A pending reshard rebuilds every bucket.
func checkRecovered(t *testing.T, img rawImage, st2 *Store, rs RecoveryStats, wm0 uint64) {
	t.Helper()
	want, own := img.model()
	const chunkWords = 4096 // pheap's bump chunk
	nodeWords := uint64(4 * st2.stride)
	chunks := func(nodes int) uint64 { return (uint64(nodes)*nodeWords + chunkWords - 1) / chunkWords }
	pending := img.pending()

	r := memoryOf(st2)
	serving, hdrs := r.tables()
	if serving != len(want) || len(hdrs) != len(want) || st2.NumShards() != len(want) {
		t.Fatalf("recovered geometry: superblock serves %d of %d tables, NumShards %d; want %d shards, no reshard pending",
			serving, len(hdrs), st2.NumShards(), len(want))
	}
	// kept[i][b] says whether shard i's bucket b stays in place.
	kept := make([][]bool, len(hdrs))
	base := pmem.Addr(wm0)
	nKept, nBuckets := 0, 0
	for i, hdr := range hdrs {
		kept[i] = make([]bool, img.field(hdr, 0))
		for b := range kept[i] {
			ok, end := img.clean(hdr, b)
			if kept[i][b] = ok && !pending; kept[i][b] {
				nKept++
				base = max(base, (end+pmem.WordsPerLine-1)&^(pmem.WordsPerLine-1))
			}
		}
		nBuckets += len(kept[i])
	}
	t.Logf("%d of %d buckets clean in the image, kept in place", nKept, nBuckets)
	total := 0
	var dirtyNodes []int // per shard, nodes its rebuild writes (idle store)
	for i, hdr := range hdrs {
		if st2.tables[i].Base() != hdr {
			t.Fatalf("shard %d: store serves table %d, its anchor holds %d", i, st2.tables[i].Base(), hdr)
		}
		nodes, written := 0, 0
		imgChains, chains := img.chains(hdr), r.chains(hdr)
		next := base
		for b, chain := range chains {
			if kept[i][b] {
				if !slices.Equal(chain, imgChains[b]) {
					t.Fatalf("shard %d bucket %d: a clean chain moved or changed in recovery", i, b)
				}
			} else {
				written += len(chain)
			}
			for j, n := range chain {
				if j > 0 && chain[j-1].key >= n.key {
					t.Fatalf("shard %d bucket %d: recovered chain not strictly ascending at key %#x", i, b, n.key)
				}
				if v, ok := want[i][n.key]; !ok || v != n.val {
					t.Fatalf("shard %d holds %#x→%d, the image model says (%d, present=%v)", i, n.key, n.val, v, ok)
				}
			}
			nodes += len(chain)
			if len(hdrs) == 1 && !kept[i][b] {
				for j := len(chain) - 1; j >= 0; j-- {
					if chain[j].addr != next {
						t.Fatalf("key %#x rebuilt at %d, want %d: rebuild order moved", chain[j].key, chain[j].addr, next)
					}
					next += pmem.Addr(nodeWords)
				}
			}
		}
		if nodes != len(want[i]) {
			t.Fatalf("shard %d recovered %d keys, the image model holds %d", i, nodes, len(want[i]))
		}
		dirtyNodes = append(dirtyNodes, written)
		total += nodes
	}
	if rs.Keys != total {
		t.Fatalf("RecoveryStats.Keys = %d, the image model holds %d", rs.Keys, total)
	}
	if pending {
		dirtyNodes = rebuilds(want, own)
	}
	written, maxChunks := 0, uint64(0)
	for _, nodes := range dirtyNodes {
		written += nodes
		maxChunks += chunks(nodes)
	}
	wm := st2.Heap().Watermark()
	got := wm - uint64(base)
	if wm < uint64(base) || got%chunkWords != 0 || got/chunkWords < chunks(written) || got/chunkWords > maxChunks {
		t.Fatalf("recovery left the watermark at %d, want %d (the carried one, or past the highest kept node) plus between %d and %d chunks of %d",
			wm, base, chunks(written), maxChunks, chunkWords)
	}
}

// markable returns the next link of the first node of every bucket chain
// pick selects, in every table: where a Delete cut between its marking CAS
// and its unlink leaves its mark, which makes recovery rebuild the chain.
func (r rawImage) markable(pick func(shard, bucket int) bool) []pmem.Addr {
	_, hdrs := r.tables()
	var links []pmem.Addr
	for i, hdr := range hdrs {
		for b, chain := range r.chains(hdr) {
			if len(chain) > 0 && pick(i, b) {
				links = append(links, chain[0].addr+pmem.Addr(2*r.stride))
			}
		}
	}
	return links
}

// plantMarks sets the marks markable names in img and returns how many.
func plantMarks(img []uint64, st *Store, pick func(shard, bucket int) bool) int {
	links := imageOf(img, st).markable(pick)
	for _, a := range links {
		img[a] |= core.MarkBit
	}
	return len(links)
}

// TestRecoverMatchesImageModel is the differential test of store.Recover:
// seeded Put/Delete/Add streams whose last operation dies part-way, both
// crash-image modes, one and four shards, plus images of a reshard cut at
// four points between its activation and its commit.
func TestRecoverMatchesImageModel(t *testing.T) {
	for seed := int64(1); seed <= 28; seed++ {
		shards := []int{4, 1}[seed%2]
		mode := []pmem.CrashMode{pmem.DropUnfenced, pmem.RandomSubset}[seed/2%2]
		opts := Options{Shards: shards, Buckets: 32, MemWords: 1 << 17}
		name := fmt.Sprintf("seed%d/shards%d/%s", seed, shards, mode)
		if seed > 24 {
			opts.Policy = core.PolicyAdjacent
			name += "/" + opts.Policy
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			st := newTestStore(t, opts)
			sess := Open[string](st, Direct)
			op := func() {
				key := fmt.Sprintf("k-%d", rng.Intn(400))
				switch rng.Intn(4) {
				case 0:
					sess.Delete(key)
				case 1:
					sess.Add(key, uint64(1+rng.Intn(9)))
				default:
					sess.Put(key, rng.Uint64())
				}
			}
			for i := 0; i < 1500; i++ {
				op()
			}
			sess.Thread().SetCrashAfter(1 + rng.Int63n(24))
			pmem.RunToCrash(op)

			wm := st.Heap().Watermark()
			img := st.Mem().CrashImage(mode, seed)
			// Single-threaded Deletes unlink what they mark, so most chains
			// are clean; every third seed marks a node in a third of them.
			if seed%3 == 0 {
				plantMarks(img, st, func(_, b int) bool { return b%3 == 0 })
			}
			st2, rs, err := Recover(pmem.NewFromImage(img, st.Mem().Config()), wm, st.Opts())
			if err != nil {
				t.Fatal(err)
			}
			checkRecovered(t, imageOf(img, st), st2, rs, wm)
		})
	}
	// A 4→6 reshard (non-doubling: keys move between the old shards too) of
	// 20 000 keys, cut right after activation (seed 1: every key still in
	// its old table), one and two thirds of the way through the
	// redistribution (keys in two tables at once), and right before the
	// commit word (seed 4). RandomSubset additionally lets each line of the
	// fence that was draining at the cut land or not on a coin flip.
	st := newTestStore(t, Options{Shards: 4, Buckets: 1024, MemWords: 1 << 20})
	sess := Open[string](st, Direct)
	for k := 0; k < 20000; k++ {
		sess.Put(fmt.Sprintf("ms-%d", k), uint64(k)+7)
	}
	sess.Close()
	for seed := int64(1); seed <= 4; seed++ {
		mode := []pmem.CrashMode{pmem.DropUnfenced, pmem.RandomSubset}[seed%2]
		t.Run(fmt.Sprintf("mid-split/seed%d/%s", seed, mode), func(t *testing.T) {
			img, rest, wm := pendingReshard(t, st, 6, float64(seed-1)/3)
			if mode == pmem.RandomSubset {
				rng := rand.New(rand.NewSource(seed))
				// The draining fence's records are its thread's, up to that
				// thread's next epoch (thread IDs are reused, so a later
				// thread's records can carry the same ID and epoch).
				for _, rec := range rest {
					if rec.Thread != rest[0].Thread {
						continue
					}
					if rec.Epoch != rest[0].Epoch {
						break
					}
					if rng.Intn(2) == 0 {
						pmem.ApplyRecord(img, rec)
					}
				}
			}
			if !imageOf(img, st).pending() {
				t.Fatal("the image describes no reshard in flight")
			}
			st2, rs, err := Recover(pmem.NewFromImage(img, st.Mem().Config()), wm, st.Opts())
			if err != nil {
				t.Fatal(err)
			}
			checkRecovered(t, imageOf(img, st), st2, rs, wm)
		})
	}
}

// TestRecoverIgnoresCycles feeds store.Recover an image whose chains have
// been bent into the shapes of list's TestRecoveryIgnoresCycles — a ρ, a
// self-loop, a loop through marked nodes — in three buckets of two shards.
// Recovery must end, and agree with the visited-set walk of the model:
// every distinct unmarked node once, clean chains, nothing counted twice.
func TestRecoverIgnoresCycles(t *testing.T) {
	st := newTestStore(t, Options{Shards: 2, Buckets: 16, MemWords: 1 << 17})
	sess := Open[string](st, Direct)
	for k := 0; k < 400; k++ {
		sess.Put(fmt.Sprintf("cy-%d", k), uint64(k)+1)
	}
	sess.Close()
	wm := st.Heap().Watermark()
	img := st.Mem().CrashImage(pmem.DropUnfenced, 1)

	r := imageOf(img, st)
	_, hdrs := r.tables()
	link := func(from, to rawNode, flag uint64) { img[from.addr+pmem.Addr(2*r.stride)] = uint64(to.addr) | flag }
	chain := func(shard, bucket int) []rawNode {
		c := r.chains(hdrs[shard])[bucket]
		if len(c) < 6 {
			t.Fatalf("shard %d bucket %d holds %d nodes, the shapes need 6", shard, bucket, len(c))
		}
		return c
	}
	keysBefore := len(r.contents(hdrs[0])) + len(r.contents(hdrs[1]))
	c := chain(0, 0)
	link(c[len(c)-1], c[2], 0) // ρ: loses nothing
	c = chain(0, 1)
	link(c[3], c[3], 0) // self-loop: cuts off the nodes behind it
	lost := len(c) - 4
	c = chain(1, 0)
	link(c[2], c[3], core.MarkBit)        // a deleted node inside the loop…
	link(c[len(c)-1], c[1], core.MarkBit) // …and one closing it
	lost += 2

	want, _ := imageOf(img, st).model()
	if got := len(want[0]) + len(want[1]); got != keysBefore-lost {
		t.Fatalf("the model reads %d keys from the bent image, want %d", got, keysBefore-lost)
	}
	st2, rs, err := Recover(pmem.NewFromImage(img, st.Mem().Config()), wm, st.Opts())
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, imageOf(img, st), st2, rs, wm)
}

// TestRecoverAllocsPerKey pins recovery's Go-heap diet at the benchmark's
// shape (4 096 keys, 8 shards, one key per bucket on average): the gather
// is one flat slice per shard, so what remains is per shard and per
// goroutine, not per bucket or per key (one of them per shard is the
// slice of chain starts the rebuild holds between its nodes' fence and its
// heads'). The map-per-bucket gather this replaced made several
// allocations per key.
func TestRecoverAllocsPerKey(t *testing.T) {
	const keys = 4096
	st := newTestStore(t, Options{Shards: 8, ExpectedKeys: 2 * keys})
	sess := Open[string](st, Direct)
	for k := 0; k < keys; k++ {
		sess.Put(fmt.Sprintf("al-%d", k), uint64(k)+1)
	}
	sess.Close()
	wm, opts, cfg := st.Heap().Watermark(), st.Opts(), st.Mem().Config()
	img := st.Mem().CrashImage(pmem.DropUnfenced, 1)
	mems := make([]*pmem.Memory, 6) // AllocsPerRun's warm-up run plus five
	for i := range mems {
		mems[i] = pmem.NewFromImage(img, cfg)
	}
	run := 0
	allocs := testing.AllocsPerRun(len(mems)-1, func() {
		_, rs, err := Recover(mems[run], wm, opts)
		if err != nil || rs.Keys != keys {
			t.Fatalf("recovered %d keys (%v), want %d", rs.Keys, err, keys)
		}
		run++
	})
	t.Logf("store.Recover: %.0f allocations for %d keys = %.4f per key", allocs, keys, allocs/keys)
	if allocs/keys > 0.05 {
		t.Fatalf("store.Recover made %.0f allocations for %d keys, want ≤ 0.05 per key", allocs, keys)
	}
}
