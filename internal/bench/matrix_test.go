package bench

import (
	"testing"
	"time"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/workload"
)

// TestMatrixRunTiny drives one set cell and one store cell at very short
// durations and checks the report comes back schema-valid with both
// metric kinds per cell.
func TestMatrixRunTiny(t *testing.T) {
	m := Matrix{
		Name:     "tiny",
		Threads:  2,
		Duration: 15 * time.Millisecond,
		Warmup:   5 * time.Millisecond,
		Repeats:  2,
		Seed:     1,
		Set: []SetCell{
			{DS: "hashtable", Policy: core.PolicyHT, Mode: dstruct.Automatic, KeyRange: 512, UpdatePct: 50},
		},
		Store: []StoreCell{
			{Mix: "g", Dist: workload.DistUniform, Policy: core.PolicyHT, Shards: 2, Records: 1024},
		},
	}
	rep, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("want 4 cells (throughput+pwbs_per_op × 2), got %d: %+v", len(rep.Cells), rep.Cells)
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
	stp := rep.Find("store/g/uniform/flit-ht/s2/r1024/throughput")
	if stp == nil || stp.Value.Mean <= 0 || stp.P99Ns <= 0 {
		t.Fatalf("store cell missing latency/throughput: %+v", stp)
	}
	// Both cells open shared stores on an empty write-back queue (a
	// delete's mark CAS, an Add's FAA on a present key): the dependency
	// fence they do not issue is still reported. A store cell's in-place
	// Put would not show it: under a Direct session's commit window its
	// value p-store is deferred and has no leading fence.
	if tput.PFences == 0 || tput.PFencesElided == 0 || stp.PFences == 0 || stp.PFencesElided == 0 {
		t.Fatalf("issued/elided fence counts missing: set %d/%d, store %d/%d",
			tput.PFences, tput.PFencesElided, stp.PFences, stp.PFencesElided)
	}
}

// TestMatrixRunOverloadTiny drives one rate-capped overload cell and
// checks its three cell kinds: goodput held near the cap, a nonzero
// shed rate, and a p99. The runner itself enforces client-shed ==
// server-shed per repeat.
func TestMatrixRunOverloadTiny(t *testing.T) {
	m := Matrix{
		Name:     "tiny-overload",
		Threads:  2,
		Duration: 60 * time.Millisecond,
		Warmup:   20 * time.Millisecond,
		Repeats:  2,
		Seed:     1,
		Overload: []OverloadCell{
			{NetCell: NetCell{Mix: "a", Dist: workload.DistUniform, Policy: core.PolicyHT, Shards: 2, Records: 1024,
				Conns: 2, Depth: 8}, RateLimit: 1000, Burst: 16},
		},
	}
	rep, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	id := "overload/a/uniform/flit-ht/s2/r1024/c2/d8/rl1000"
	good := rep.Find(id + "/goodput")
	if good == nil || good.Value.Mean <= 0 {
		t.Fatalf("goodput cell missing; have %v", cellIDs(rep))
	}
	// The closed loop offers far more than 1000 ops/s; the limiter must
	// hold goodput to the same order as the cap (generous band — short
	// windows and burst credit wobble the edges).
	if good.Value.Mean > 4000 {
		t.Fatalf("goodput %.0f ops/s ignores the 1000 ops/s cap", good.Value.Mean)
	}
	shed := rep.Find(id + "/shed_rate")
	if shed == nil || shed.Value.Mean <= 0 || shed.Value.Mean >= 1 {
		t.Fatalf("shed_rate cell missing or degenerate: %+v", shed)
	}
	if p99 := rep.Find(id + "/p99"); p99 == nil || !p99.LowerIsBetter || p99.Value.Mean <= 0 {
		t.Fatalf("p99 cell missing: %+v", p99)
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
		if len(m.Set)+len(m.Store)+len(m.Net)+len(m.Combine)+len(m.Overload) == 0 {
			t.Fatalf("preset %q has no cells", name)
		}
		checkSetCells(t, name, m.Set)
		for _, c := range m.Store {
			if _, err := workload.MixByName(c.Mix); err != nil {
				t.Fatalf("preset %q names unknown mix: %v", name, err)
			}
		}
		seen := map[string]bool{}
		for _, c := range m.Overload {
			if _, err := workload.MixByName(c.Mix); err != nil {
				t.Fatalf("preset %q names unknown mix: %v", name, err)
			}
			if seen[c.ID()] {
				t.Fatalf("preset %q duplicate cell %s", name, c.ID())
			}
			seen[c.ID()] = true
		}
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
	for _, c := range smoke.Store {
		smokeIDs[c.ID()] = true
	}
	for _, c := range full.Set {
		if smokeIDs[c.ID()] {
			t.Errorf("smoke and full share cell id %s", c.ID())
		}
	}
	for _, c := range full.Store {
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

// TestMatrixRunNetCell drives one network front-end cell at tiny
// duration: the report must carry client-observed throughput/latency
// and a positive pwbs-per-acked-op value.
func TestMatrixRunNetCell(t *testing.T) {
	m := Matrix{
		Name:     "tiny-net",
		Threads:  1,
		Duration: 20 * time.Millisecond,
		Warmup:   5 * time.Millisecond,
		Repeats:  2,
		Seed:     1,
		Net: []NetCell{
			{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT,
				Shards: 2, Records: 1024, Conns: 1, Depth: 8},
		},
	}
	rep, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	tput := rep.Find("net/a/zipfian/flit-ht/s2/r1024/c1/d8/throughput")
	if tput == nil {
		t.Fatalf("net throughput cell missing; have %v", cellIDs(rep))
	}
	if tput.Value.Mean <= 0 || tput.Ops == 0 || tput.P99Ns <= 0 || tput.PFences == 0 {
		t.Fatalf("net throughput cell incomplete: %+v", tput)
	}
	pwb := rep.Find("net/a/zipfian/flit-ht/s2/r1024/c1/d8/pwbs_per_op")
	if pwb == nil || !pwb.LowerIsBetter || pwb.Value.Mean <= 0 {
		t.Fatalf("net pwbs_per_op cell wrong: %+v", pwb)
	}
	// Group commit at depth 8: far fewer fences than acked ops.
	if tput.PFences >= tput.Ops {
		t.Fatalf("net cell fences %d >= acked ops %d: no amortization", tput.PFences, tput.Ops)
	}
	opb := rep.Find("net/a/zipfian/flit-ht/s2/r1024/c1/d8/ops_per_batch")
	if opb == nil || opb.Value.Mean <= 1.5 {
		t.Fatalf("ops_per_batch cell missing or not batching at depth 8: %+v", opb)
	}
}

// TestGroupCommitPreset pins the committed comparison's structure: the
// groupcommit preset pairs each net mix with its unbatched store
// baseline and includes pipeline depths ≥ 8.
func TestGroupCommitPreset(t *testing.T) {
	m, ok := Preset("groupcommit")
	if !ok {
		t.Fatal("groupcommit preset missing")
	}
	if m.Threads != 1 {
		t.Fatalf("groupcommit preset threads = %d, want 1 (determinism)", m.Threads)
	}
	baseMixes := map[string]bool{}
	for _, c := range m.Store {
		baseMixes[c.Mix] = true
	}
	deep := false
	for _, c := range m.Net {
		if !baseMixes[c.Mix] {
			t.Fatalf("net cell mix %q has no unbatched store baseline in the preset", c.Mix)
		}
		if c.Depth >= 8 {
			deep = true
		}
	}
	if !deep {
		t.Fatal("groupcommit preset has no depth >= 8 net cell")
	}
}
