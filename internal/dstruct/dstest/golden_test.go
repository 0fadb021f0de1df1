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

// golden holds, per policy and per structure × mode, the instruction
// counts of goldenScript (construction included) on one thread: the
// structure's whole persistence cost, exactly. A single thread never sees
// another's tag, so every count repeats bit for bit. Link-and-persist
// cannot instrument the BST (§6.4), so it has no BST rows.
var golden = map[string]map[string]counts{
	core.PolicyNoPersist: {
		"list/automatic":       {17280, 316, 303, 0, 0, 0},
		"list/nvtraverse":      {18199, 316, 303, 0, 0, 0},
		"list/manual":          {18199, 316, 303, 0, 0, 0},
		"hashtable/automatic":  {3490, 325, 303, 0, 0, 0},
		"hashtable/nvtraverse": {4409, 325, 303, 0, 0, 0},
		"hashtable/manual":     {4409, 325, 303, 0, 0, 0},
		"skiplist/automatic":   {23822, 404, 343, 0, 0, 0},
		"skiplist/nvtraverse":  {24693, 404, 343, 0, 0, 0},
		"skiplist/manual":      {24693, 404, 343, 0, 0, 0},
		"bst/automatic":        {9694, 637, 233, 0, 0, 0},
		"bst/nvtraverse":       {10894, 637, 233, 0, 0, 0},
		"bst/manual":           {10894, 637, 233, 0, 0, 0},
		"lockmap/automatic":    {3041, 978, 600, 0, 0, 0},
		"lockmap/nvtraverse":   {3041, 978, 600, 0, 0, 0},
		"lockmap/manual":       {3041, 978, 600, 0, 0, 0},
		"queue":                {466, 604, 333, 0, 0, 0},
	},
	core.PolicyPlain: {
		"list/automatic":       {17280, 316, 303, 17899, 1454, 383},
		"list/nvtraverse":      {18199, 316, 303, 1328, 1139, 68},
		"list/manual":          {18199, 316, 303, 1328, 1139, 68},
		"hashtable/automatic":  {3490, 325, 303, 4111, 1456, 383},
		"hashtable/nvtraverse": {4409, 325, 303, 1330, 1141, 68},
		"hashtable/manual":     {4409, 325, 303, 1330, 1141, 68},
		"skiplist/automatic":   {23822, 404, 343, 24477, 1597, 452},
		"skiplist/nvtraverse":  {24693, 404, 343, 1297, 1127, 162},
		"skiplist/manual":      {24693, 404, 343, 1135, 965, 162},
		"bst/automatic":        {9694, 637, 233, 10549, 1685, 616},
		"bst/nvtraverse":       {10894, 637, 233, 1905, 1069, 0},
		"bst/manual":           {10894, 637, 233, 1541, 913, 104},
		"lockmap/automatic":    {3041, 978, 600, 210, 809, 1200},
		"lockmap/nvtraverse":   {3041, 978, 600, 210, 809, 1200},
		"lockmap/manual":       {3041, 978, 600, 210, 809, 1200},
		"queue":                {466, 604, 333, 668, 1002, 0},
	},
	core.PolicyIz: {
		"list/automatic":       {17280, 316, 303, 17899, 18499, 618},
		"list/nvtraverse":      {18199, 316, 303, 1328, 1928, 198},
		"list/manual":          {18199, 316, 303, 1328, 1928, 198},
		"hashtable/automatic":  {3490, 325, 303, 4111, 4711, 618},
		"hashtable/nvtraverse": {4409, 325, 303, 1330, 1930, 198},
		"hashtable/manual":     {4409, 325, 303, 1330, 1930, 198},
		"skiplist/automatic":   {23822, 404, 343, 24477, 25076, 723},
		"skiplist/nvtraverse":  {24693, 404, 343, 1297, 1894, 266},
		"skiplist/manual":      {24693, 404, 343, 1135, 1732, 266},
		"bst/automatic":        {9694, 637, 233, 10549, 11146, 849},
		"bst/nvtraverse":       {10894, 637, 233, 1905, 2425, 156},
		"bst/manual":           {10894, 637, 233, 1541, 2061, 156},
		"lockmap/automatic":    {3041, 978, 600, 210, 809, 1200},
		"lockmap/nvtraverse":   {3041, 978, 600, 210, 809, 1200},
		"lockmap/manual":       {3041, 978, 600, 210, 809, 1200},
		"queue":                {466, 604, 333, 668, 1002, 133},
	},
	core.PolicyAdjacent: {
		"list/automatic":       {34560, 316, 1539, 619, 1219, 618},
		"list/nvtraverse":      {19118, 316, 909, 409, 1009, 198},
		"list/manual":          {19118, 316, 909, 409, 1009, 198},
		"hashtable/automatic":  {6980, 325, 1541, 622, 1221, 618},
		"hashtable/nvtraverse": {5328, 325, 911, 412, 1011, 198},
		"hashtable/manual":     {5328, 325, 911, 412, 1011, 198},
		"skiplist/automatic":   {47572, 404, 1791, 730, 1326, 723},
		"skiplist/nvtraverse":  {25564, 404, 1031, 465, 1023, 266},
		"skiplist/manual":      {25564, 404, 707, 303, 861, 266},
		"bst/automatic":        {19388, 637, 1933, 855, 1452, 849},
		"bst/nvtraverse":       {12406, 637, 701, 393, 913, 156},
		"bst/manual":           {12094, 637, 597, 341, 861, 156},
		"lockmap/automatic":    {3041, 978, 602, 212, 809, 1200},
		"lockmap/nvtraverse":   {3041, 978, 602, 212, 809, 1200},
		"lockmap/manual":       {3041, 978, 602, 212, 809, 1200},
		"queue":                {599, 604, 1001, 535, 869, 133},
	},
	core.PolicyHT: {
		"list/automatic":       {17280, 316, 303, 619, 1219, 618},
		"list/nvtraverse":      {18199, 316, 303, 409, 1009, 198},
		"list/manual":          {18199, 316, 303, 409, 1009, 198},
		"hashtable/automatic":  {3490, 325, 303, 621, 1221, 618},
		"hashtable/nvtraverse": {4409, 325, 303, 411, 1011, 198},
		"hashtable/manual":     {4409, 325, 303, 411, 1011, 198},
		"skiplist/automatic":   {23822, 404, 343, 727, 1326, 723},
		"skiplist/nvtraverse":  {24693, 404, 343, 426, 1023, 266},
		"skiplist/manual":      {24693, 404, 343, 264, 861, 266},
		"bst/automatic":        {9694, 637, 233, 855, 1452, 849},
		"bst/nvtraverse":       {10894, 637, 233, 393, 913, 156},
		"bst/manual":           {10894, 637, 233, 341, 861, 156},
		"lockmap/automatic":    {3041, 978, 600, 210, 809, 1200},
		"lockmap/nvtraverse":   {3041, 978, 600, 210, 809, 1200},
		"lockmap/manual":       {3041, 978, 600, 210, 809, 1200},
		"queue":                {466, 604, 333, 535, 869, 133},
	},
	core.PolicyPacked: {
		"list/automatic":       {17280, 316, 303, 619, 1219, 618},
		"list/nvtraverse":      {18199, 316, 303, 409, 1009, 198},
		"list/manual":          {18199, 316, 303, 409, 1009, 198},
		"hashtable/automatic":  {3490, 325, 303, 621, 1221, 618},
		"hashtable/nvtraverse": {4409, 325, 303, 411, 1011, 198},
		"hashtable/manual":     {4409, 325, 303, 411, 1011, 198},
		"skiplist/automatic":   {23822, 404, 343, 727, 1326, 723},
		"skiplist/nvtraverse":  {24693, 404, 343, 426, 1023, 266},
		"skiplist/manual":      {24693, 404, 343, 264, 861, 266},
		"bst/automatic":        {9694, 637, 233, 855, 1452, 849},
		"bst/nvtraverse":       {10894, 637, 233, 393, 913, 156},
		"bst/manual":           {10894, 637, 233, 341, 861, 156},
		"lockmap/automatic":    {3041, 978, 600, 210, 809, 1200},
		"lockmap/nvtraverse":   {3041, 978, 600, 210, 809, 1200},
		"lockmap/manual":       {3041, 978, 600, 210, 809, 1200},
		"queue":                {466, 604, 333, 535, 869, 133},
	},
	core.PolicyPerLine: {
		"list/automatic":       {17280, 316, 303, 619, 1219, 618},
		"list/nvtraverse":      {18199, 316, 303, 409, 1009, 198},
		"list/manual":          {18199, 316, 303, 409, 1009, 198},
		"hashtable/automatic":  {3490, 325, 303, 621, 1221, 618},
		"hashtable/nvtraverse": {4409, 325, 303, 411, 1011, 198},
		"hashtable/manual":     {4409, 325, 303, 411, 1011, 198},
		"skiplist/automatic":   {23822, 404, 343, 727, 1326, 723},
		"skiplist/nvtraverse":  {24693, 404, 343, 426, 1023, 266},
		"skiplist/manual":      {24693, 404, 343, 264, 861, 266},
		"bst/automatic":        {9694, 637, 233, 855, 1452, 849},
		"bst/nvtraverse":       {10894, 637, 233, 393, 913, 156},
		"bst/manual":           {10894, 637, 233, 341, 861, 156},
		"lockmap/automatic":    {3041, 978, 600, 210, 809, 1200},
		"lockmap/nvtraverse":   {3041, 978, 600, 210, 809, 1200},
		"lockmap/manual":       {3041, 978, 600, 210, 809, 1200},
		"queue":                {466, 604, 333, 535, 869, 133},
	},
	core.PolicyLAP: {
		"list/automatic":       {17960, 1, 1236, 619, 1219, 618},
		"list/nvtraverse":      {18564, 316, 606, 409, 1009, 198},
		"list/manual":          {18564, 316, 606, 409, 1009, 198},
		"hashtable/automatic":  {4171, 9, 1238, 621, 1221, 618},
		"hashtable/nvtraverse": {4775, 324, 608, 411, 1011, 198},
		"hashtable/manual":     {4775, 324, 608, 411, 1011, 198},
		"skiplist/automatic":   {24546, 23, 1448, 727, 1326, 723},
		"skiplist/nvtraverse":  {25037, 403, 688, 426, 1023, 266},
		"skiplist/manual":      {25037, 403, 526, 264, 861, 266},
		"lockmap/automatic":    {4242, 377, 1202, 210, 809, 1200},
		"lockmap/nvtraverse":   {4242, 377, 1202, 210, 809, 1200},
		"lockmap/manual":       {4242, 377, 1202, 210, 809, 1200},
		"queue":                {800, 603, 668, 535, 869, 133},
	},
}

// goldenSets builds each structure the script drives.
var goldenSets = []struct {
	name string
	new  func(dstruct.Config) dstruct.Set
	lap  bool // link-and-persist can instrument it
}{
	{"list", func(c dstruct.Config) dstruct.Set { return list.New(c) }, true},
	{"hashtable", func(c dstruct.Config) dstruct.Set { return hashtable.New(c, 8) }, true},
	{"skiplist", func(c dstruct.Config) dstruct.Set { return skiplist.New(c) }, true},
	{"bst", func(c dstruct.Config) dstruct.Set { return bst.New(c) }, false},
	{"lockmap", func(c dstruct.Config) dstruct.Set { return lockmap.New(c, 8) }, true},
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

// goldenConfig builds policy name (flit-counter tables of 16 KB) over a
// fresh enumeration-sized heap.
func goldenConfig(t *testing.T, name string, mode dstruct.Mode) dstruct.Config {
	t.Helper()
	pol, err := core.NewPolicyByName(name, dlcheck.Words, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	return dlcheck.NewConfig(pol, mode)
}

// TestGoldenInstructionCounts pins every policy's exact counts on every
// structure × mode and on the queue: a change to a policy, a structure's
// traversal or the heap moves a row, and the row says by how much.
func TestGoldenInstructionCounts(t *testing.T) {
	for _, ds := range goldenSets {
		for _, mode := range dstruct.Modes {
			name := ds.name + "/" + mode.String()
			t.Run(name, func(t *testing.T) {
				for _, pol := range core.PolicyNames() {
					t.Run(pol, func(t *testing.T) {
						if pol == core.PolicyLAP && !ds.lap {
							t.Skip("n/a (§6.4): the structure uses the word's spare bits")
						}
						cfg := goldenConfig(t, pol, mode)
						th := ds.new(cfg).NewThread()
						defer th.Close()
						goldenScript(th)
						checkGolden(t, pol, name, countsOf(cfg.Heap.Mem().TotalStats()))
					})
				}
			})
		}
	}
	// The queue has no durability modes: one row.
	t.Run("queue", func(t *testing.T) {
		for _, pol := range core.PolicyNames() {
			t.Run(pol, func(t *testing.T) {
				cfg := goldenConfig(t, pol, dstruct.Automatic)
				th := queue.New(cfg).NewThread()
				defer th.Close()
				for i := uint64(0); i < 200; i++ {
					th.Enqueue(i)
					if i%3 != 0 {
						th.Dequeue()
					}
				}
				checkGolden(t, pol, "queue", countsOf(cfg.Heap.Mem().TotalStats()))
			})
		}
	})
}

// TestGoldenHeadlines asserts what the pinned counts decide of the paper's
// comparison on one thread: tagging saves plain flushing most of its
// write-backs wherever every traversal load is a p-load (Automatic), and
// Izraelevitz's on-the-spot load fences never fall below plain's
// deferred ones.
func TestGoldenHeadlines(t *testing.T) {
	plain, ht, iz := golden[core.PolicyPlain], golden[core.PolicyHT], golden[core.PolicyIz]
	for _, ds := range []string{"list", "hashtable", "skiplist", "bst"} {
		row := ds + "/automatic"
		if p, f := plain[row].PWBs, ht[row].PWBs; p < 5*f {
			t.Errorf("%s: plain issues %d PWBs, flit-ht %d: want plain ≥ 5× flit-ht", row, p, f)
		}
	}
	for row, p := range plain {
		if iz[row].PFences < p.PFences {
			t.Errorf("%s: izraelevitz issues %d fences, plain %d: want izraelevitz ≥ plain", row, iz[row].PFences, p.PFences)
		}
	}
}

// checkGolden compares got with policy pol's recorded row.
func checkGolden(t *testing.T, pol, name string, got counts) {
	t.Helper()
	if want := golden[pol][name]; got != want {
		t.Errorf("%s: instruction counts moved:\n got  %s\n want %s", pol, row(name, got), row(name, want))
	}
}

func row(name string, c counts) string {
	return fmt.Sprintf("%q: {%d, %d, %d, %d, %d, %d},", name, c.Loads, c.Stores, c.RMWs, c.PWBs, c.PFences, c.ElidedFences)
}
