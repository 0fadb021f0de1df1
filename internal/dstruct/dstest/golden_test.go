package dstest_test

import (
	"fmt"
	"testing"

	"flit/internal/core"
	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/dstruct/bst"
	"flit/internal/dstruct/hashtable"
	"flit/internal/dstruct/list"
	"flit/internal/dstruct/lockmap"
	"flit/internal/dstruct/queue"
	"flit/internal/dstruct/skiplist"
	"flit/internal/pmem"
)

// counts is the part of pmem.Stats a single-threaded run repeats exactly.
type counts struct{ Loads, Stores, RMWs, PWBs, PFences, ElidedFences uint64 }

func countsOf(s pmem.Stats) counts {
	return counts{s.Loads, s.Stores, s.RMWs, s.PWBs, s.PFences, s.ElidedFences}
}

// golden holds, per structure × mode under flit-HT, the instruction counts
// of goldenScript (construction included) as recorded at da12743 — the
// commit before the traversal discipline moved into package dstruct.
var golden = map[string]counts{
	"list/automatic":       {17280, 316, 303, 619, 1219, 618},
	"list/nvtraverse":      {18094, 316, 303, 409, 1009, 198},
	"list/manual":          {18094, 316, 303, 409, 1009, 198},
	"hashtable/automatic":  {3490, 325, 303, 621, 1221, 618},
	"hashtable/nvtraverse": {4304, 325, 303, 411, 1011, 198},
	"hashtable/manual":     {4304, 325, 303, 411, 1011, 198},
	"skiplist/automatic":   {23822, 404, 343, 727, 1326, 723},
	"skiplist/nvtraverse":  {24564, 404, 343, 426, 1023, 266},
	"skiplist/manual":      {24564, 404, 343, 264, 861, 266},
	"bst/automatic":        {9694, 637, 233, 855, 1452, 849},
	"bst/nvtraverse":       {10894, 637, 233, 393, 913, 156},
	"bst/manual":           {10894, 637, 233, 341, 861, 156},
	"lockmap/automatic":    {3041, 978, 600, 210, 809, 1200},
	"lockmap/nvtraverse":   {3041, 978, 600, 210, 809, 1200},
	"lockmap/manual":       {3041, 978, 600, 210, 809, 1200},
	"queue":                {466, 604, 333, 535, 869, 133},
}

// goldenSets builds each structure the script drives.
var goldenSets = []struct {
	name string
	new  func(dstruct.Config) dstruct.Set
}{
	{"list", func(c dstruct.Config) dstruct.Set { return list.New(c) }},
	{"hashtable", func(c dstruct.Config) dstruct.Set { return hashtable.New(c, 8) }},
	{"skiplist", func(c dstruct.Config) dstruct.Set { return skiplist.New(c) }},
	{"bst", func(c dstruct.Config) dstruct.Set { return bst.New(c) }},
	{"lockmap", func(c dstruct.Config) dstruct.Set { return lockmap.New(c, 8) }},
}

// goldenScript drives 600 xorshift-chosen operations over 48 keys through
// th — Insert, Delete and Contains everywhere, Get and Add where the
// handle has them — and returns how many of them can insert and how many
// can delete.
func goldenScript(th dstruct.SetThread) (inserts, deletes uint64) {
	getter, _ := th.(interface{ Get(uint64) (uint64, bool) })
	adder, _ := th.(interface {
		Add(key, delta uint64) (uint64, bool)
	})
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 600; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := (x >> 33) % 48
		switch op := x % 5; {
		case op == 0:
			th.Insert(k, uint64(i))
			inserts++
		case op == 1:
			th.Delete(k)
			deletes++
		case op == 3 && getter != nil:
			getter.Get(k)
		case op == 4 && adder != nil:
			adder.Add(k, 3)
			inserts++
		default:
			th.Contains(k)
		}
	}
	return inserts, deletes
}

func goldenConfig(mode dstruct.Mode) dstruct.Config {
	return dlcheck.NewConfig(core.NewFliT(core.NewHashTable(1<<14)), mode)
}

// TestGoldenInstructionCounts holds the refactor to "nothing moved": under
// Automatic every count equals the parent's; under NVTraverse and Manual
// every count but Loads does, and Loads may exceed the parent's by at most
// one per inserting operation — the p-load of the link that reached the
// predecessor — plus, on the skiplist, one per Delete: its physical
// cleanup re-finds the node it just marked, and an unlink p-loads the mark
// it rests on. Neither flushes unless it sees a tag, and a single thread
// never does.
func TestGoldenInstructionCounts(t *testing.T) {
	for _, ds := range goldenSets {
		for _, mode := range dstruct.Modes {
			name := ds.name + "/" + mode.String()
			t.Run(name, func(t *testing.T) {
				cfg := goldenConfig(mode)
				th := ds.new(cfg).NewThread()
				defer th.Close()
				slack, deletes := goldenScript(th)
				if ds.name == "skiplist" {
					slack += deletes
				}
				checkGolden(t, name, mode, countsOf(cfg.Heap.Mem().TotalStats()), slack)
			})
		}
	}
	// The queue has no durability modes: one row.
	t.Run("queue", func(t *testing.T) {
		cfg := goldenConfig(dstruct.Automatic)
		th := queue.New(cfg).NewThread()
		defer th.Close()
		for i := uint64(0); i < 200; i++ {
			th.Enqueue(i)
			if i%3 != 0 {
				th.Dequeue()
			}
		}
		checkGolden(t, "queue", dstruct.Automatic, countsOf(cfg.Heap.Mem().TotalStats()), 0)
	})
}

// checkGolden compares got with the recorded row; outside Automatic, Loads
// may exceed it by up to slack.
func checkGolden(t *testing.T, name string, mode dstruct.Mode, got counts, slack uint64) {
	t.Helper()
	want := golden[name]
	if extra := got.Loads - want.Loads; mode != dstruct.Automatic && extra <= slack {
		want.Loads += extra
	}
	if got != want {
		t.Errorf("instruction counts moved (Loads slack %d):\n got  %s\n want %s", slack, row(name, got), row(name, golden[name]))
	}
}

func row(name string, c counts) string {
	return fmt.Sprintf("%q: {%d, %d, %d, %d, %d, %d},", name, c.Loads, c.Stores, c.RMWs, c.PWBs, c.PFences, c.ElidedFences)
}
