package list

import (
	"cmp"
	"slices"

	"flit/internal/dstruct"
	"flit/internal/pheap"
	"flit/internal/pmem"
)

// Pair is one surviving key→value binding read out of a crash image.
type Pair struct{ Key, Val uint64 }

// GatherAt reads the persisted chain rooted at head in (recovered) memory
// and appends its surviving pairs to dst in chain order: nodes whose next
// word carries the Harris mark were logically deleted before the crash —
// the marking CAS is a p-instruction in every durability mode, so a marked
// node is marked in every crash image — and are discarded. Brent's cycle
// detection rides along (one compare per node), so a corrupt cyclic image
// costs a second walk, not a hang: each distinct node still counts once.
//
// clean reports that the chain is already exactly what Rebuild would write
// for those pairs, so recovery may keep it where it lies: every link word,
// head included, is a plain pointer with no flag bit, the keys rise
// strictly to nil (which also rules out a cycle), and under a stride that
// puts each field's flit-counter beside it every counter word is zero — a
// stale non-zero counter would tag its field for the rest of the run. end
// is one past the highest node walked, which a kept chain needs the heap's
// watermark to cover (pheap.Heap.RaiseWatermark).
func GatherAt(cfg *dstruct.Config, head pmem.Addr, dst []Pair) (pairs []Pair, clean bool, end pmem.Addr) {
	mem := cfg.Heap.Mem()
	headRaw := mem.VolatileWord(head)
	first := dstruct.Ptr(headRaw)
	clean = headRaw == uint64(first)
	base := len(dst)
	var prevKey uint64
	// The tortoise rests on the node visited at each power-of-two step;
	// meeting it again lam steps later means the chain loops with period lam.
	tortoise, power, lam := pmem.NilAddr, 1, 0
	for curr := first; curr != pmem.NilAddr; lam++ {
		if curr == tortoise {
			// The walk so far read some nodes twice. Redo it with a scout
			// lam nodes ahead: the walk catches it at the loop's entry, and
			// from there once more per node of the loop.
			scout := first
			for i := 0; i < lam; i++ {
				scout = dstruct.Ptr(mem.VolatileWord(cfg.Field(scout, fNext)))
			}
			dst, curr = dst[:base], first
			for lam > 0 && curr != pmem.NilAddr {
				if curr == scout {
					lam--
				}
				dst, curr = gatherNode(cfg, mem, curr, dst)
				scout = dstruct.Ptr(mem.VolatileWord(cfg.Field(scout, fNext)))
			}
			return dst, false, end
		}
		if lam == power {
			tortoise, power, lam = curr, 2*power, 0
		}
		nextRaw := mem.VolatileWord(cfg.Field(curr, fNext))
		key := mem.VolatileWord(cfg.Field(curr, fKey))
		clean = clean && nextRaw == uint64(dstruct.Ptr(nextRaw)) && (curr == first || key > prevKey) &&
			(cfg.Stride == 1 || countersZero(cfg, mem, curr))
		prevKey = key
		end = max(end, curr+pmem.Addr(cfg.Words(NumFields)))
		if !dstruct.Marked(nextRaw) {
			dst = append(dst, Pair{key, mem.VolatileWord(cfg.Field(curr, fVal))})
		}
		curr = dstruct.Ptr(nextRaw)
	}
	return dst, clean, end
}

// countersZero reports whether every word between node n's fields — the
// flit-counters of a policy that places them beside their field — is zero.
func countersZero(cfg *dstruct.Config, mem *pmem.Memory, n pmem.Addr) bool {
	for f := 0; f < NumFields; f++ {
		for w := 1; w < cfg.Stride; w++ {
			if mem.VolatileWord(cfg.Field(n, f)+pmem.Addr(w)) != 0 {
				return false
			}
		}
	}
	return true
}

// gatherNode appends node n's pair to dst unless n is marked, and returns
// n's successor.
func gatherNode(cfg *dstruct.Config, mem *pmem.Memory, n pmem.Addr, dst []Pair) ([]Pair, pmem.Addr) {
	nextRaw := mem.VolatileWord(cfg.Field(n, fNext))
	if !dstruct.Marked(nextRaw) {
		dst = append(dst, Pair{mem.VolatileWord(cfg.Field(n, fKey)), mem.VolatileWord(cfg.Field(n, fVal))})
	}
	return dst, dstruct.Ptr(nextRaw)
}

// Rebuild writes a fresh sorted chain holding pairs, using raw stores
// (recovery is single-threaded, the paper's crash model spawns new
// processes), and returns the chain's first node and how many nodes it
// wrote. pairs is sorted in place; of equal keys the last wins. Nodes are
// allocated from the highest key down. Nothing points at the chain yet:
// the caller fences the nodes, and only then stores the first node into
// the link word that publishes them — a head that reaches the image
// before its nodes would lose the whole chain.
//
//flit:rawpersist single-threaded recovery rebuild with explicit PWB walk per node
func Rebuild(cfg *dstruct.Config, t *pmem.Thread, ar *pheap.Arena, pairs []Pair) (pmem.Addr, int) {
	slices.SortStableFunc(pairs, func(a, b Pair) int { return cmp.Compare(a.Key, b.Key) })
	nodes := 0
	next := pmem.NilAddr
	for i := len(pairs) - 1; i >= 0; i-- {
		if i+1 < len(pairs) && pairs[i].Key == pairs[i+1].Key {
			continue // an earlier copy of a key already written
		}
		n := ar.Alloc(cfg.Words(NumFields))
		nodes++
		t.Store(cfg.Field(n, fKey), pairs[i].Key)
		t.Store(cfg.Field(n, fVal), pairs[i].Val)
		t.Store(cfg.Field(n, fNext), uint64(next))
		// Flush every line the node covers, stepping line-ALIGNED like
		// core's persistObject: a node straddling a line has a tail line.
		end := n + pmem.Addr(cfg.Words(NumFields))
		for a := n; a < end; a = (a + pmem.WordsPerLine) &^ (pmem.WordsPerLine - 1) {
			t.PWB(a)
		}
		next = n
	}
	return next, nodes
}

// Recover rebuilds a durably consistent list from the structure persisted
// at cfg's root slot and attaches it. A clean chain (see GatherAt) is kept
// where it lies: the heap's watermark is raised past its nodes, and nothing
// is written or fenced. Otherwise the surviving pairs are re-laid-out into
// a fresh chain, its nodes fenced, then the head that publishes them.
// cfg.Heap must be a pheap.Recover heap over the crash image, so new nodes
// cannot overwrite surviving data.
//
//flit:rawpersist recovery fences the rebuilt nodes, then the head that publishes them
func Recover(cfg dstruct.Config) *List {
	pairs, clean, end := GatherAt(&cfg, cfg.Root(), nil)
	if clean {
		cfg.Heap.RaiseWatermark(uint64(end))
		return Attach(cfg)
	}
	t := cfg.Heap.Mem().RegisterThread()
	ar := cfg.Heap.NewArena()
	first, _ := Rebuild(&cfg, t, ar, pairs)
	t.PFence()
	t.Store(cfg.Root(), uint64(first))
	t.PWB(cfg.Root())
	t.PFence()
	ar.Release()
	t.Release()
	return Attach(cfg)
}
