package bench

import (
	"testing"
	"time"

	"flit/internal/core"
	"flit/internal/dstruct"
)

// TestMatrixRunTiny drives one set cell at very short durations and
// checks the report comes back schema-valid with both metric kinds.
func TestMatrixRunTiny(t *testing.T) {
	m := Matrix{
		Name:     "tiny",
		Threads:  2,
		Duration: 15 * time.Millisecond,
		Warmup:   5 * time.Millisecond,
		Repeats:  2,
		Set: []SetCell{
			{DS: "hashtable", Policy: core.PolicyHT, Mode: dstruct.Automatic, KeyRange: 512, UpdatePct: 50},
		},
	}
	rep, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("want 2 cells (throughput+pwbs_per_op), got %d: %+v", len(rep.Cells), rep.Cells)
	}
	tput := rep.Find("set/hashtable/automatic/flit-ht/k512/u50/throughput")
	if tput == nil {
		t.Fatalf("set throughput cell missing; have %v", cellIDs(rep))
	}
	if tput.Value.N != 2 || tput.Value.Mean <= 0 || tput.Ops == 0 {
		t.Fatalf("set throughput cell not folded from 2 repeats: %+v", tput)
	}
	pwb := rep.Find("set/hashtable/automatic/flit-ht/k512/u50/pwbs_per_op")
	if pwb == nil || !pwb.LowerIsBetter || pwb.Value.Mean <= 0 {
		t.Fatalf("flit-ht at 50%% updates must flush: %+v", pwb)
	}
	// A delete's mark CAS on an empty write-back queue has no dependency
	// to order: the fence it does not issue is still reported.
	if tput.PFences == 0 || tput.PFencesElided == 0 {
		t.Fatalf("issued/elided fence counts missing: %d/%d", tput.PFences, tput.PFencesElided)
	}
}

func TestMatrixEmpty(t *testing.T) {
	if _, err := (Matrix{Name: "void"}).Run(); err == nil {
		t.Fatal("empty matrix must error")
	}
}

// checkSetCells holds a preset's set cells to the shared rules: unique
// IDs, registered policies, and no link-and-persist on the NM-BST.
func checkSetCells(t *testing.T, name string, cells []SetCell) {
	t.Helper()
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.ID()] {
			t.Fatalf("preset %q duplicate cell %s", name, c.ID())
		}
		seen[c.ID()] = true
		if _, err := core.NewPolicyByName(c.Policy, 1<<12, 64); err != nil {
			t.Fatalf("preset %q names unknown policy: %v", name, err)
		}
		if perKeyWords(c.DS) == 0 {
			t.Fatalf("preset %q names unknown structure %q", name, c.DS)
		}
		if c.Policy == core.PolicyLAP && c.DS == "bst" {
			t.Fatalf("preset %q contains the inapplicable lap×bst cell", name)
		}
	}
}

func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		m, ok := Preset(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		if len(m.Set) == 0 {
			t.Fatalf("preset %q has no cells", name)
		}
		checkSetCells(t, name, m.Set)
	}
	if _, ok := Preset("no-such-matrix"); ok {
		t.Fatal("unknown preset should not resolve")
	}
	// Every figure is a preset of the same runner and answers to the same
	// rules; its views may only read cells its matrix measures.
	if len(FigureIDs()) != 10 {
		t.Fatalf("FigureIDs lists %d figures, want the paper's five and five ablations", len(FigureIDs()))
	}
	for _, id := range FigureIDs() {
		f, ok := FigurePreset(id, 2, false, false)
		if !ok {
			t.Fatalf("figure %q missing", id)
		}
		if len(f.Set) == 0 || len(f.Views) == 0 {
			t.Fatalf("figure %q has no cells or no views", id)
		}
		checkSetCells(t, "fig-"+id, f.Set)
		measured := map[string]bool{}
		for _, c := range f.Set {
			measured[c.ID()] = true
		}
		for _, v := range f.Views {
			for _, row := range v.Rows {
				if len(row.Cells) > len(v.Cols) {
					t.Fatalf("figure %q view %q row %q: %d cells under %d columns", id, v.Title, row.Label, len(row.Cells), len(v.Cols))
				}
			}
			for _, c := range v.cells() {
				if !measured[c.ID()] {
					t.Fatalf("figure %q view %q reads unmeasured cell %s", id, v.Title, c.ID())
				}
			}
		}
	}
	if _, ok := FigurePreset("no-such-figure", 2, false, false); ok {
		t.Fatal("unknown figure should not resolve")
	}
	// Differently-sized matrices must never share cell IDs: a reader
	// joining two reports by ID would pair non-comparable measurements.
	smoke, _ := Preset("smoke")
	full, _ := Preset("full")
	smokeIDs := map[string]bool{}
	for _, c := range smoke.Set {
		smokeIDs[c.ID()] = true
	}
	for _, c := range full.Set {
		if smokeIDs[c.ID()] {
			t.Errorf("smoke and full share cell id %s", c.ID())
		}
	}
	// The same point has the same ID whoever names it: Figure 7's
	// automatic cells at the small BST size are the full matrix's.
	f7, _ := FigurePreset("7", 2, false, false)
	fullIDs := map[string]bool{}
	for _, c := range full.Set {
		fullIDs[c.ID()] = true
	}
	shared := 0
	for _, c := range f7.Set {
		if fullIDs[c.ID()] {
			shared++
		}
	}
	if shared == 0 {
		t.Error("Figure 7 and the full matrix name the same 10K-key points but share no cell ID")
	}
}

func cellIDs(r *Report) []string {
	ids := make([]string, len(r.Cells))
	for i, c := range r.Cells {
		ids[i] = c.ID
	}
	return ids
}
