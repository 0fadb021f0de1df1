package store_test

import (
	"bytes"
	"testing"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/dstruct/hashtable"
	"flit/internal/pheap"
	"flit/internal/pmem"
	"flit/internal/store"
	"flit/internal/workload"
)

// TestHashKeyGolden pins the key hash bit for bit. The hash IS the key and
// the placement rule of every persisted image, so an edit of hashKey that
// moves any of these is a format change and must be made on purpose, here.
// Lengths cover the empty key, the byte tail alone (1, 7), exactly one word
// (8), word + tail (9), two words (16), the benchmark's key shape (20) and
// four words + one byte (33); the last two pin the padding bit above the
// tail (a trailing NUL is a different key). The values agree with an
// independent transcription of the definition in hashKey's comment.
func TestHashKeyGolden(t *testing.T) {
	pattern := []byte("abcdefghijklmnopqrstuvwxyz0123456789")
	for _, g := range []struct {
		key  string
		want uint64
	}{
		{"", 0x4897c7d04a2c},
		{"a", 0x68d348211d9d},
		{string(pattern[:7]), 0xd567c984cdbf},
		{string(pattern[:8]), 0x8628af83d97a},
		{string(pattern[:9]), 0x6a051338bc08},
		{string(pattern[:16]), 0x50c01dc5b329},
		{"user0000000000000042", 0xfc6e9187072d},
		{string(pattern[:33]), 0x3f0cfe2d9cd5},
		{"\x00", 0x6d34c2ab6458},
		{"a\x00", 0x672039e52d75},
	} {
		if got := store.HashKey(g.key); got != g.want {
			t.Errorf("HashKey(%q) = %#x, want %#x", g.key, got, g.want)
		}
		if got := store.HashKeyBytes([]byte(g.key)); got != g.want {
			t.Errorf("HashKeyBytes(%q) = %#x, want %#x", g.key, got, g.want)
		}
	}
}

// chi2 is Pearson's statistic of counts against a uniform expectation.
func chi2(counts []int, total int) float64 {
	e := float64(total) / float64(len(counts))
	var x float64
	for _, c := range counts {
		d := float64(c) - e
		x += d * d / e
	}
	return x
}

// TestHashKeySpreads checks the two things the store asks of its key hash:
// distinct keys stay distinct in 48 bits, and the shard (h mod 8) and the
// bucket (the hashtable's own index of h) fill evenly, so chains are no
// longer than a random function would make them. The bounds are the
// statistic's mean + 5 standard deviations (χ² with k−1 degrees of freedom:
// mean k−1, variance 2(k−1)) — the inputs are fixed, so a pass is a pass on
// every machine.
func TestHashKeySpreads(t *testing.T) {
	const consecutive = 1 << 16
	seen := make(map[uint64]string, consecutive+4096)
	add := func(key []byte) uint64 {
		h := store.HashKeyBytes(key)
		if h >= dstruct.KeyMax {
			t.Fatalf("HashKey(%q) = %#x escapes the 48-bit window", key, h)
		}
		if prev, dup := seen[h]; dup && prev != string(key) {
			t.Fatalf("48-bit collision: %q and %q both hash to %#x", prev, key, h)
		}
		seen[h] = string(key)
		return h
	}

	// The hashtable's placement of a hashed key, for 1 024 buckets in one
	// table and for the store's shape of 8 shards x 128 buckets.
	mem := pmem.New(pmem.DefaultConfig(1 << 16))
	pol, err := core.NewPolicyByName(core.PolicyHT, mem.Words(), 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dstruct.Config{Heap: pheap.New(mem), Policy: pol, Mode: dstruct.Automatic, Stride: dstruct.StrideFor(pol)}
	flat, perShard := hashtable.New(cfg, 1024), hashtable.New(cfg, 128)

	shards := make([]int, 8)
	buckets := make([]int, 1024)
	sharded := make([]int, 8*128)
	var key []byte
	for i := uint64(0); i < consecutive; i++ {
		key = workload.AppendKey(key[:0], i)
		h := add(key)
		sh := int(h % 8)
		shards[sh]++
		buckets[flat.BucketOf(h)]++
		sharded[sh*128+perShard.BucketOf(h)]++
	}
	if x := chi2(shards, consecutive); x > 7+5*3.75 {
		t.Errorf("8-shard occupancy %v: chi2 = %.1f, bound %.1f", shards, x, 7+5*3.75)
	}
	for name, counts := range map[string][]int{"1024 buckets": buckets, "8 shards x 128 buckets": sharded} {
		if x := chi2(counts, consecutive); x > 1023+5*45.3 {
			t.Errorf("%s: chi2 = %.1f, bound %.1f", name, x, 1023+5*45.3)
		}
		longest := 0
		for _, c := range counts {
			longest = max(longest, c)
		}
		// Mean chain 64; a Poisson(64) maximum over 1 024 buckets sits near
		// 64 + 3.3*8 = 90.
		if longest > 100 {
			t.Errorf("%s: longest chain %d > 100 (mean 64)", name, longest)
		}
	}

	// Near neighbours: every single-bit flip at every byte position of a
	// few base keys, and every prefix of each (lengths 0..40; of the
	// all-zero key only the length differs).
	bases := [][]byte{
		workload.AppendKey(nil, 0),
		workload.AppendKey(nil, 4095),
		[]byte("0123456789abcdef0123456789abcdef01234567"),
		bytes.Repeat([]byte{0}, 40),
	}
	for _, base := range bases {
		flipped := append([]byte(nil), base...)
		for p := range flipped {
			for b := 0; b < 8; b++ {
				flipped[p] ^= 1 << b
				add(flipped)
				flipped[p] ^= 1 << b
			}
		}
		for n := 0; n <= len(base); n++ {
			add(base[:n])
		}
	}
}

// FuzzHashKey: the two spellings agree on equal bytes and the result stays
// inside the instrumented key window, whatever the bytes.
func FuzzHashKey(f *testing.F) {
	for _, s := range []string{"", "a", "a\x00", "user0000000000000042", "0123456789abcdef0123456789abcdef0"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		h := store.HashKeyBytes(b)
		if hs := store.HashKey(string(b)); hs != h {
			t.Fatalf("HashKey(%q) = %#x, HashKeyBytes = %#x", b, hs, h)
		}
		if h >= dstruct.KeyMax {
			t.Fatalf("HashKeyBytes(%q) = %#x escapes the 48-bit window", b, h)
		}
	})
}

// TestDirectOpsZeroAlloc pins the embedded read path (and the in-place
// write beside it) at zero Go allocations per operation, byte keys through
// a Direct session: hash, route, table, list.
func TestDirectOpsZeroAlloc(t *testing.T) {
	const records = 1024
	st, err := store.New(store.Options{ExpectedKeys: 2 * records, VirtualClock: true})
	if err != nil {
		t.Fatal(err)
	}
	sess := store.Open[[]byte](st, store.Direct)
	defer sess.Close()
	keys := make([][]byte, records)
	for i := range keys {
		keys[i] = workload.AppendKey(nil, uint64(i))
		sess.Put(keys[i], uint64(i)+1)
	}
	i := 0
	next := func() []byte { i++; return keys[i%records] }
	for name, op := range map[string]func(){
		"Get":          func() { sess.Get(next()) },
		"in-place Put": func() { sess.Put(next(), 7) },
		"Contains":     func() { sess.Contains(next()) },
	} {
		if a := testing.AllocsPerRun(2000, op); a != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, a)
		}
	}
}
