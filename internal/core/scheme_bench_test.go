package core

import (
	"math"
	"testing"
	"unsafe"

	"flit/internal/pmem"
)

// TestPow2Sizing pins the sizing helper's edge cases: minimum sizes,
// exact powers, one-past-a-power, and the shift that maps a 64-bit hash
// onto the table by its top bits.
func TestPow2Sizing(t *testing.T) {
	cases := []struct {
		n     int
		size  int
		shift uint
	}{
		{-5, 1, 64}, // degenerate inputs clamp to the 1-entry table
		{0, 1, 64},
		{1, 1, 64},
		{2, 2, 63},
		{3, 4, 62},
		{4, 4, 62},
		{5, 8, 61},
		{8, 8, 61},
		{9, 16, 60},
		{1 << 20, 1 << 20, 44},
		{1<<20 + 1, 1 << 21, 43},
	}
	for _, c := range cases {
		size, shift := Pow2Sizing(c.n)
		if size != c.size || shift != c.shift {
			t.Errorf("Pow2Sizing(%d) = (%d,%d), want (%d,%d)", c.n, size, shift, c.size, c.shift)
		}
		if got := CeilPow2(c.n); got != c.size {
			t.Errorf("CeilPow2(%d) = %d, want %d", c.n, got, c.size)
		}
		// The shift must map every 64-bit hash into [0, size).
		for _, h := range []uint64{0, 1, ^uint64(0), 0x9E3779B97F4A7C15} {
			if idx := h >> shift; idx >= uint64(size) {
				t.Errorf("Pow2Sizing(%d): hash %#x >> %d = %d escapes [0,%d)", c.n, h, shift, idx, size)
			}
		}
	}
}

// TestSchemeSizingUnchanged pins the constructors to the helper: table
// byte sizes and report names must match the pre-refactor rounding.
func TestSchemeSizingUnchanged(t *testing.T) {
	if h := NewHashTable(1 << 20); h.bytes != 1<<20 || h.Name() != "flit-HT(1MB)" {
		t.Errorf("NewHashTable(1MB) = %d bytes %q", h.bytes, h.Name())
	}
	if h := NewHashTable(1); h.bytes != 64 {
		t.Errorf("NewHashTable(1) = %d bytes, want the 64B floor", h.bytes)
	}
	if h := NewHashTable(65); h.bytes != 64 {
		t.Errorf("NewHashTable(65) = %d bytes, want 64 (integer bytes/8 truncates)", h.bytes)
	}
	if h := NewHashTable(129); h.bytes != 128 {
		t.Errorf("NewHashTable(129) = %d bytes, want 128", h.bytes)
	}
	if h := NewPackedHashTable(1 << 12); h.bytes != 1<<12 || h.Name() != "flit-packed(4KB)" {
		t.Errorf("NewPackedHashTable(4KB) = %d bytes %q", h.bytes, h.Name())
	}
	if h := NewPackedHashTable(65); h.bytes != 128 {
		t.Errorf("NewPackedHashTable(65) = %d bytes, want 128", h.bytes)
	}
}

// TestCounterSlotLocality pins flit-HT's line-local index at every table
// size: the eight words of a data line own eight distinct counters inside
// one 64-byte-aligned counter group, consecutive lines spread evenly over
// the groups, and each word's counter still works on its own.
func TestCounterSlotLocality(t *testing.T) {
	m := pmem.New(pmem.Config{Words: 1 << 10})
	th := m.RegisterThread()
	for bytes := 64; bytes <= 1<<20; bytes <<= 1 {
		h := NewHashTable(bytes)
		groups := len(h.counters) / pmem.WordsPerLine
		if base := uintptr(unsafe.Pointer(&h.counters[0])); base%64 != 0 {
			t.Fatalf("%s: counter array at %#x is not cache-line aligned", h.Name(), base)
		}

		const lines = 1 << 16
		load := make([]int, groups)
		for l := 1; l <= lines; l++ {
			base := pmem.Addr(l) << pmem.LineShift
			g := h.index(base) / pmem.WordsPerLine
			for w := pmem.Addr(0); w < pmem.WordsPerLine; w++ {
				// Same group, counter w of it: distinct by construction
				// and inside one aligned 64-byte counter line.
				if idx := h.index(base + w); idx != g*pmem.WordsPerLine+uint64(w) {
					t.Fatalf("%s: word %d of line %d -> counter %d, want %d (group %d)",
						h.Name(), w, l, idx, g*pmem.WordsPerLine+uint64(w), g)
				}
			}
			load[g]++
		}
		// No new clustering: consecutive lines (what an arena hands out)
		// fill the groups to within 25% of uniform, or ±2 lines where a
		// group expects fewer than eight.
		mean := float64(lines) / float64(groups)
		tol := math.Max(0.25*mean, 2)
		for g, n := range load {
			if d := math.Abs(float64(n) - mean); d > tol {
				t.Fatalf("%s: group %d holds %d of %d lines, uniform is %.1f ± %.1f",
					h.Name(), g, n, lines, mean, tol)
			}
		}

		// Every word of a line round-trips independently of its neighbours.
		base := pmem.Addr(5) << pmem.LineShift
		for w := pmem.Addr(0); w < pmem.WordsPerLine; w++ {
			h.Inc(th, base+w)
			for o := pmem.Addr(0); o < pmem.WordsPerLine; o++ {
				if got := h.Tagged(th, base+o); got != (o == w) {
					t.Fatalf("%s: after Inc(word %d), Tagged(word %d) = %v", h.Name(), w, o, got)
				}
			}
			h.Dec(th, base+w)
		}
		if n := h.LiveTags(); n != 0 {
			t.Fatalf("%s: %d live tags after every Inc was undone", h.Name(), n)
		}
	}
}

// --- scheme-level microbenchmarks ---
//
// BenchmarkCounterScheme* isolate the flit-counter placements: one
// Inc/Tagged/Dec round per iteration over a spread of addresses, which
// is what every FliT p-store (and the p-load tag check) costs before
// any flush is issued. Scheme-level regressions show up here without
// running the full matrix.

func benchScheme(b *testing.B, c CounterScheme) {
	cfg := pmem.DefaultConfig(1 << 16)
	cfg.PWBCost, cfg.PFenceCost, cfg.PFenceEntryCost, cfg.MissCost = 0, 0, 0, 0
	m := pmem.New(cfg)
	th := m.RegisterThread()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stride the 48-bit-style keyspace like a traversal would; the
		// adjacent scheme needs a+1 in range, hence the -8 headroom.
		a := pmem.Addr(8 + (uint64(i)*2654435761)%(1<<16-8))
		c.Inc(th, a)
		if !c.Tagged(th, a) {
			b.Fatal("incremented counter not tagged")
		}
		c.Dec(th, a)
	}
}

// benchSchemeNode is the node-shaped round: a fresh 3-word node tags,
// checks and untags its key, value and next words back to back, the
// access pattern of a hashtable insert and of a Get's three tag probes.
func benchSchemeNode(b *testing.B, c CounterScheme) {
	m := pmem.New(pmem.Config{Words: 1 << 16})
	th := m.RegisterThread()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 3-word nodes at a 4-word stride: never across a line.
		n := pmem.Addr(8 + (uint64(i)*2654435761)%(1<<14-2)*4)
		for f := pmem.Addr(0); f < 3; f++ {
			c.Inc(th, n+f)
		}
		for f := pmem.Addr(0); f < 3; f++ {
			if !c.Tagged(th, n+f) {
				b.Fatal("incremented counter not tagged")
			}
			c.Dec(th, n+f)
		}
	}
}

func BenchmarkCounterSchemeNodeHT1MB(b *testing.B) { benchSchemeNode(b, NewHashTable(1<<20)) }

func BenchmarkCounterSchemeAdjacent(b *testing.B) { benchScheme(b, Adjacent{}) }

func BenchmarkCounterSchemeHT4KB(b *testing.B) { benchScheme(b, NewHashTable(1<<12)) }

func BenchmarkCounterSchemeHT1MB(b *testing.B) { benchScheme(b, NewHashTable(1<<20)) }

func BenchmarkCounterSchemePacked4KB(b *testing.B) { benchScheme(b, NewPackedHashTable(1<<12)) }

func BenchmarkCounterSchemePacked1MB(b *testing.B) { benchScheme(b, NewPackedHashTable(1<<20)) }

func BenchmarkCounterSchemePerLine(b *testing.B) { benchScheme(b, NewDirectMap(1<<16)) }

// BenchmarkPStoreClosureFree pins the restructured Algorithm 4 p-store
// path: it must not allocate (the apply-closure elimination).
func BenchmarkPStoreClosureFree(b *testing.B) {
	cfg := pmem.DefaultConfig(1 << 12)
	cfg.PWBCost, cfg.PFenceCost, cfg.PFenceEntryCost, cfg.MissCost = 0, 0, 0, 0
	m := pmem.New(cfg)
	th := m.RegisterThread()
	pol := NewFliT(NewHashTable(1 << 12))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Store(th, 64, uint64(i), P)
		pol.CAS(th, 64, uint64(i), uint64(i+1), P)
		pol.FAA(th, 64, 1, P)
		pol.Exchange(th, 64, uint64(i), P)
	}
}
