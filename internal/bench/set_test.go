package bench

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"flit/internal/core"
	"flit/internal/dstruct"
)

// measureOne runs a single set cell without warm-up and returns its
// throughput and pwbs/op report cells.
func measureOne(t *testing.T, c SetCell, d time.Duration, repeats int) (tput, pwbs *Cell) {
	t.Helper()
	rep, err := Matrix{Name: "one", Threads: 2, Duration: d, Warmup: -1, Repeats: repeats, Set: []SetCell{c}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	tput, pwbs = rep.Find(c.ID()+"/throughput"), rep.Find(c.ID()+"/pwbs_per_op")
	if tput == nil || pwbs == nil {
		t.Fatalf("cell %s missing from report; have %v", c.ID(), cellIDs(rep))
	}
	return tput, pwbs
}

func TestMeasureProducesThroughput(t *testing.T) {
	for _, ds := range DataStructures {
		for _, pol := range []string{core.PolicyNoPersist, core.PolicyPlain, core.PolicyAdjacent, core.PolicyHT} {
			tput, _ := measureOne(t, SetCell{DS: ds, Policy: pol, Mode: dstruct.Automatic, KeyRange: 512, UpdatePct: 5},
				20*time.Millisecond, 1)
			if tput.Ops == 0 || tput.Value.Mean <= 0 {
				t.Fatalf("%s/%s: no throughput measured: %+v", ds, pol, tput)
			}
		}
	}
}

func TestMeasureRepeatedAverages(t *testing.T) {
	tput, pwbs := measureOne(t, SetCell{DS: "list", Policy: core.PolicyHT, Mode: dstruct.Automatic, KeyRange: 64, UpdatePct: 5},
		10*time.Millisecond, 3)
	if tput.Ops == 0 || tput.Value.Mean <= 0 || tput.Value.N != 3 || pwbs.Value.N != 3 {
		t.Fatalf("cell not folded from 3 repeats: %+v %+v", tput, pwbs)
	}
}

func TestPrefillFillsHalf(t *testing.T) {
	inst, err := NewInstance(SetCell{DS: "list", Policy: core.PolicyHT, Mode: dstruct.Automatic, KeyRange: 128}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(inst.Snapshot()); got != 64 {
		t.Fatalf("prefill produced %d keys, want 64", got)
	}
	if inst.Mem.TotalStats().PWBs != 0 {
		t.Fatal("prefill statistics not reset")
	}
	for _, bad := range []SetCell{{DS: "trie", Policy: core.PolicyHT}, {DS: "list", Policy: "no-such-policy"}} {
		if _, err := NewInstance(bad, false, 0); err == nil {
			t.Fatalf("NewInstance(%+v) must fail", bad)
		}
	}
}

func TestFliTBeatsPlainOnReadHeavyAutomatic(t *testing.T) {
	// The paper's central claim, in miniature: with p-loads dominating
	// (automatic mode, 5% updates), FliT must outperform plain flushing.
	c := SetCell{DS: "bst", Mode: dstruct.Automatic, KeyRange: 10_000, UpdatePct: 5}
	c.Policy = core.PolicyPlain
	plain, plainPWBs := measureOne(t, c, 60*time.Millisecond, 1)
	c.Policy = core.PolicyHT
	flit, flitPWBs := measureOne(t, c, 60*time.Millisecond, 1)
	if flit.Value.Mean < 1.5*plain.Value.Mean {
		t.Fatalf("FliT %.0f ops/s vs plain %.0f ops/s: speedup %.2fx < 1.5x",
			flit.Value.Mean, plain.Value.Mean, flit.Value.Mean/plain.Value.Mean)
	}
	if flitPWBs.Value.Mean >= plainPWBs.Value.Mean {
		t.Fatalf("FliT pwbs/op %.2f not below plain %.2f", flitPWBs.Value.Mean, plainPWBs.Value.Mean)
	}
}

// TestPolicyLabels pins the eight legend spellings and holds them to
// what the constructed policy calls itself — at table sizes small
// enough to build, since the label must not need the table.
func TestPolicyLabels(t *testing.T) {
	cases := map[string]SetCell{
		"no-persist":       {Policy: core.PolicyNoPersist},
		"plain":            {Policy: core.PolicyPlain},
		"flit-adjacent":    {Policy: core.PolicyAdjacent},
		"flit-HT(1MB)":     {Policy: core.PolicyHT},
		"flit-HT(4KB)":     {Policy: core.PolicyHT, HTBytes: 4 << 10},
		"flit-packed(4KB)": {Policy: core.PolicyPacked, HTBytes: 4 << 10},
		"flit-perline":     {Policy: core.PolicyPerLine},
		"link-and-persist": {Policy: core.PolicyLAP},
	}
	for want, c := range cases {
		if got := c.PolicyLabel(); got != want {
			t.Errorf("PolicyLabel(%q) = %q, want %q", c.Policy, got, want)
		}
		pol, err := core.NewPolicyByName(c.Policy, 1<<10, c.HTBytes)
		if err != nil {
			t.Fatal(err)
		}
		if pol.Name() != want {
			t.Errorf("policy %q calls itself %q, label says %q", c.Policy, pol.Name(), want)
		}
	}
	if got := (SetCell{Policy: core.PolicyHT, HTBytes: 64 << 20}).PolicyLabel(); got != "flit-HT(64MB)" {
		t.Errorf("64 MB label = %q", got)
	}
}

// TestRepeatedCellReleasesItsThreads: prefill and every repeat of a cell
// open their own handles; each must give its pmem thread back, on every
// structure — a cell used to leak `threads` pmem threads and arenas per
// repeat.
func TestRepeatedCellReleasesItsThreads(t *testing.T) {
	for _, ds := range DataStructures {
		c := SetCell{DS: ds, Policy: core.PolicyHT, Mode: dstruct.NVTraverse, KeyRange: 64, UpdatePct: 50}
		inst, err := NewInstance(c, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		baseline := len(inst.Mem.Threads())
		for repeat := 0; repeat < 3; repeat++ {
			inst.run(c, 3, time.Millisecond)
		}
		if got := len(inst.Mem.Threads()); got != baseline {
			t.Errorf("%s: %d pmem threads registered after 3 repeats of a 3-thread cell, %d before", ds, got, baseline)
		}
	}
}

// opCounter is a SetThread that only counts what it is asked to do.
type opCounter struct{ inserts, deletes, contains int }

func (o *opCounter) Insert(k, v uint64) bool { o.inserts++; return true }
func (o *opCounter) Delete(k uint64) bool    { o.deletes++; return true }
func (o *opCounter) Contains(k uint64) bool  { o.contains++; return true }
func (o *opCounter) Close()                  {}

// TestUpdateSplitIsEven counts what the workload loop issues over a fixed
// number of draws: §6 splits updates 50/50 between inserts and deletes
// at every update ratio, including the headline 5% (where taking the
// coin from the parity of a draw in [0,100) gave 60/40 and drifted every
// 5%-update structure from its 50% prefill toward 60% fill).
func TestUpdateSplitIsEven(t *testing.T) {
	const draws = 400_000
	for _, pct := range []int{5, 50} {
		var got opCounter
		drive(&got, rand.New(rand.NewSource(1)), nil, 1024, pct, draws)
		updates := got.inserts + got.deletes
		if want := draws * pct / 100; updates < want*95/100 || updates > want*105/100 {
			t.Errorf("%d%% updates: %d of %d draws were updates, want ≈%d", pct, updates, draws, want)
		}
		if diff := got.inserts - got.deletes; diff*50 > updates || diff*50 < -updates {
			t.Errorf("%d%% updates: %d inserts vs %d deletes — not a 50/50 split", pct, got.inserts, got.deletes)
		}
		if got.inserts+got.deletes+got.contains != draws {
			t.Errorf("%d%% updates: %d ops issued for %d draws", pct, got.inserts+got.deletes+got.contains, draws)
		}
	}
}

// TestWorkloadOnlyCellsShareInstance checks the runner's plan, by build
// count: cells that differ only in update ratio, threads or skew run on
// one instance; any build field splits them. Figure 8's sweep must cost
// one prefill per structure × policy, not three.
func TestWorkloadOnlyCellsShareInstance(t *testing.T) {
	base := SetCell{DS: "bst", Policy: core.PolicyHT, Mode: dstruct.Automatic, KeyRange: 512}
	sweep := perUpd(base)
	threads, skew, deflt := base, base, base
	threads.Threads, skew.ZipfS, deflt.HTBytes = 4, 1.2, defaultHTBytes
	// Interleave a different build: grouping is by field, not adjacency.
	other := base
	other.Policy = core.PolicyPlain
	cells := []SetCell{sweep[0], other, sweep[1], sweep[2], threads, skew, deflt}
	plan := planSet(cells)
	if len(plan) != 2 || len(plan[0]) != 6 || len(plan[1]) != 1 {
		t.Fatalf("plan builds %d instances %v, want 2 (6 cells + 1)", len(plan), plan)
	}
	for _, split := range []func(*SetCell){
		func(c *SetCell) { c.DS = "list" },
		func(c *SetCell) { c.HTBytes = 4 << 10 },
		func(c *SetCell) { c.Mode = dstruct.Manual },
		func(c *SetCell) { c.KeyRange = 1024 },
		func(c *SetCell) { c.Invalidate = true },
	} {
		c := base
		split(&c)
		if got := len(planSet([]SetCell{base, c})); got != 2 {
			t.Errorf("cells %s and %s differ in a build field but share an instance", base.ID(), c.ID())
		}
	}
	f8, _ := FigurePreset("8", 2, false, false)
	builds := map[SetCell]bool{}
	for _, c := range f8.Set {
		builds[c.build()] = true
	}
	if got, want := len(planSet(f8.Set)), len(builds); got != want || got*3 != len(f8.Set) {
		t.Fatalf("Figure 8: %d cells plan %d builds, want %d (one per three-ratio sweep)", len(f8.Set), got, want)
	}
}

// TestFig9RunsQuickly runs a tiny Figure 9 and checks the table against
// the report it was rendered from: the paper's layout (titles, labels,
// units), every rendered value the mean of the report cell its view
// names, repeat statistics intact, and the figure's headline ordering.
func TestFig9RunsQuickly(t *testing.T) {
	f, _ := FigurePreset("9", 2, true, false)
	f.Duration, f.Repeats = 10*time.Millisecond, 2
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	tables := f.Tables(rep)
	if len(tables) != 1 {
		t.Fatalf("Fig9 renders %d tables, want 1", len(tables))
	}
	tb, v := tables[0], f.Views[0]
	if tb.Title != "Figure 9: flushes per operation, 5% updates" || tb.Unit != "pwbs/op" ||
		tb.ColHead != `policy \ structure/mode` ||
		strings.Join(tb.Cols, "|") != "ht/auto|ht/manual|list/auto|list/manual" {
		t.Fatalf("Fig9 header moved: %+v", tb)
	}
	if len(tb.Notes) != 1 || !strings.HasPrefix(tb.Notes[0], "paper: counts are similar across FliT variants") {
		t.Fatalf("Fig9 notes moved: %q", tb.Notes)
	}
	var labels []string
	for ri, row := range tb.Rows {
		labels = append(labels, row.Label)
		if len(row.Cells) != len(tb.Cols) {
			t.Fatalf("row %q has %d cells", row.Label, len(row.Cells))
		}
		for ci, got := range row.Cells {
			c := rep.Find(v.Rows[ri].Cells[ci].ID() + "/pwbs_per_op")
			if c == nil {
				t.Fatalf("rendered cell %s/%s has no report cell", row.Label, tb.Cols[ci])
			}
			if got != c.Value.Mean {
				t.Errorf("%s/%s renders %v, report cell %s holds %v", row.Label, tb.Cols[ci], got, c.ID, c.Value.Mean)
			}
			if c.Unit != "pwbs/op" || !c.LowerIsBetter || c.Value.N != f.Repeats {
				t.Errorf("report cell %s lost unit, direction or repeat statistics: %+v", c.ID, c)
			}
		}
	}
	if strings.Join(labels, "|") != "plain|flit-adjacent|flit-HT(1MB)|link-and-persist" {
		t.Fatalf("Fig9 row labels moved: %v", labels)
	}
	// The report is the matrix's: same IDs -matrix gives the same points.
	listAuto := func(pol string) float64 {
		return rep.Mean(SetCell{DS: "list", Policy: pol, Mode: dstruct.Automatic, KeyRange: 128, UpdatePct: 5}.ID() + "/pwbs_per_op")
	}
	if plain, flit := listAuto(core.PolicyPlain), listAuto(core.PolicyHT); plain <= flit || flit <= 0 {
		t.Fatalf("plain pwbs/op %.2f not above flit-HT %.2f", plain, flit)
	}
	if rep.Find("set/list/automatic/flit-ht/k128/u5/pwbs_per_op") == nil {
		t.Fatalf("figure cell IDs are not the matrix's: %v", cellIDs(rep))
	}
}

func TestTableFormat(t *testing.T) {
	tb := &Table{Title: "T", ColHead: "h", Cols: []string{"a", "b"}, Unit: "u"}
	tb.AddRow("row", 1.5, 1234)
	out := tb.Format()
	for _, want := range []string{"=== T", "row", "1.500", "1234"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Title: "T", ColHead: "h", Cols: []string{"a,b", "c"}, Unit: "u"}
	tb.AddRow(`r"1`, 1.5, 2)
	out := tb.CSV()
	for _, want := range []string{"# T [u]", `"a,b"`, `"r""1"`, "1.5,2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
}
