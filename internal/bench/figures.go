package bench

import (
	"fmt"
	"runtime"
	"time"

	"flit/internal/core"
	"flit/internal/dstruct"
)

// Figure is one figure or ablation of the paper's evaluation (§6) as a
// preset of the matrix runner: the set cells to measure and the views
// that lay them out as the paper's tables. Run the Matrix, then render
// Tables from its report.
type Figure struct {
	Matrix
	Views []View
}

// Tables renders every view of the figure from rep.
func (f Figure) Tables(rep *Report) []*Table {
	tables := make([]*Table, len(f.Views))
	for i, v := range f.Views {
		tables[i] = v.Table(rep)
	}
	return tables
}

// figures lists the figures in the canonical run order of "all". Each
// builds its views for a host: threads is the worker count (Figure 6
// sweeps up to 4× it), small restricts Figure 8 to the small structure
// sizes, invalidate turns on clwb-invalidation modeling everywhere (the
// paper's Cascade Lake behaviour).
var figures = []struct {
	id    string
	views func(threads int, small, invalidate bool) []View
}{
	{"5", fig5},
	{"6", fig6},
	{"7", fig7},
	{"8", fig8},
	{"9", fig9},
	{"ablation-inv", ablationInvalidate},
	{"ablation-pack", ablationPacked},
	{"ablation-line", ablationPerLine},
	{"ablation-iz", ablationIzraelevitz},
	{"ablation-zipf", ablationZipf},
}

// FigureIDs lists the figure ids in run order.
func FigureIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// FigurePreset returns figure id with each distinct cell of its views
// listed once, measured without a warm-up window in one 120 ms run per
// cell. Callers adjust Duration and Repeats (the paper averages 5)
// before Run.
func FigurePreset(id string, threads int, small, invalidate bool) (Figure, bool) {
	if threads < 1 {
		threads = runtime.GOMAXPROCS(0)
	}
	f := Figure{Matrix: Matrix{Name: "fig-" + id, Threads: threads, Duration: 120 * time.Millisecond, Warmup: -1, Repeats: 1}}
	for _, fig := range figures {
		if fig.id == id {
			f.Views = fig.views(threads, small, invalidate)
		}
	}
	seen := make(map[string]bool)
	for _, v := range f.Views {
		for _, c := range v.cells() {
			if !seen[c.ID()] {
				seen[c.ID()] = true
				f.Set = append(f.Set, c)
			}
		}
	}
	return f, len(f.Views) > 0
}

// DataStructures lists the four benchmark structures in the paper's order.
var DataStructures = []string{"bst", "hashtable", "list", "skiplist"}

// smallSize mirrors the paper's small configurations (10K keys; 128 for
// the linear-traversal list).
func smallSize(ds string) uint64 {
	if ds == "list" {
		return 128
	}
	return 10_000
}

// largeSize mirrors the paper's large configurations, scaled from 10M to
// 1M keys (4K for the list, as in the paper) to fit a laptop-class host.
func largeSize(ds string) uint64 {
	if ds == "list" {
		return 4096
	}
	return 1_000_000
}

// headline is the paper's default point for ds: small size, 5% updates.
func headline(ds, policy string, mode dstruct.Mode, invalidate bool) SetCell {
	return SetCell{DS: ds, Policy: policy, Mode: mode, KeyRange: smallSize(ds), UpdatePct: 5, Invalidate: invalidate}
}

// perDS is the headline cell of policy and mode on each structure.
func perDS(policy string, mode dstruct.Mode, invalidate bool) []SetCell {
	row := make([]SetCell, len(DataStructures))
	for i, ds := range DataStructures {
		row[i] = headline(ds, policy, mode, invalidate)
	}
	return row
}

// updCols labels the paper's update-ratio sweep; perUpd is c at each.
var updCols = []string{"0%", "5%", "50%"}

func perUpd(c SetCell) []SetCell {
	row := make([]SetCell, len(updCols))
	for i, u := range []int{0, 5, 50} {
		row[i] = c
		row[i].UpdatePct = u
	}
	return row
}

// mops and flushes are the two measured view shapes: throughput in
// Mops/s and pwbs per operation.
func mops(title, colHead string, cols []string, notes ...string) View {
	return View{Title: title, ColHead: colHead, Cols: cols, Unit: "Mops/s", Metric: "throughput", Scale: 1e-6, Notes: notes}
}

func flushes(title, colHead string, cols []string, notes ...string) View {
	return View{Title: title, ColHead: colHead, Cols: cols, Unit: "pwbs/op", Metric: "pwbs_per_op", Notes: notes}
}

// fig5 is Figure 5: flit-HT size tuning on the automatic BST with 10K
// keys across update ratios.
func fig5(_ int, _, invalidate bool) []View {
	v := mops("Figure 5: flit-HT size tuning (automatic BST, 10K keys)", `flit-HT size \ update%`, updCols,
		"paper: larger tables lose at 0% updates (cache residency); 4KB collapses at >=5% (line collisions)")
	for _, bytes := range []int{4 << 10, 64 << 10, 1 << 20, 16 << 20, 64 << 20} {
		c := headline("bst", core.PolicyHT, dstruct.Automatic, invalidate)
		c.HTBytes = bytes
		v.addRow(c.PolicyLabel(), perUpd(c)...)
	}
	return []View{v}
}

// fig6 is Figure 6: thread scalability of the automatic BST (10K keys,
// 5% updates). Thread counts beyond the host's cores oversubscribe
// goroutines.
func fig6(threads int, _, invalidate bool) []View {
	v := mops("Figure 6: scalability (automatic BST, 10K keys, 5% updates)", `policy \ threads`, nil,
		fmt.Sprintf("host has %d CPUs; counts beyond that oversubscribe goroutines", runtime.NumCPU()))
	var counts []int
	for n := 1; n <= threads*4; n *= 2 {
		counts = append(counts, n)
		v.Cols = append(v.Cols, fmt.Sprint(n))
	}
	for _, pol := range []string{core.PolicyNoPersist, core.PolicyPlain, core.PolicyHT, core.PolicyAdjacent} {
		row := make([]SetCell, len(counts))
		for i, n := range counts {
			row[i] = headline("bst", pol, dstruct.Automatic, invalidate)
			row[i].Threads = n
		}
		v.addRow(row[0].PolicyLabel(), row...)
	}
	return []View{v}
}

// fig7 is Figure 7: all four structures, three durability methods, all
// persistence policies, 5% updates, small sizes — plus the paper's
// headline distilled from the same cells: flit-HT's speedup over plain
// per structure and durability method.
func fig7(threads int, _, invalidate bool) []View {
	policies := []string{core.PolicyPlain, core.PolicyAdjacent, core.PolicyHT, core.PolicyLAP}
	var views []View
	for _, ds := range DataStructures {
		v := mops(fmt.Sprintf("Figure 7: %s, %d keys, %d threads, 5%% updates", ds, smallSize(ds), threads),
			`durability \ policy`, []string{"plain", "flit-adjacent", "flit-HT", "link&persist"})
		for _, mode := range dstruct.Modes {
			row := make([]SetCell, len(policies))
			for i, pol := range policies {
				if pol != core.PolicyLAP || ds != "bst" { // link-and-persist inapplicable to the NM-BST
					row[i] = headline(ds, pol, mode, invalidate)
				}
			}
			v.addRow(mode.String(), row...)
		}
		v.addRow("non-persistent baseline", headline(ds, core.PolicyNoPersist, dstruct.Automatic, invalidate))
		views = append(views, v)
	}
	sum := View{
		Title: "Figure 7 summary: flit-HT speedup over plain", ColHead: `durability \ structure`,
		Cols: DataStructures, Unit: "x (>=1 means FliT wins)", Metric: "throughput", Over: core.PolicyPlain,
		Notes: []string{"paper: >=2.1x in all but one workload; automatic gains most (6.68x-99.5x)"},
	}
	for _, mode := range dstruct.Modes {
		sum.addRow(mode.String(), perDS(core.PolicyHT, mode, invalidate)...)
	}
	return append(views, sum)
}

// fig8Series are the policy rows of Figures 8 and 9.
var fig8Series = []string{core.PolicyPlain, core.PolicyAdjacent, core.PolicyHT, core.PolicyLAP}

// fig8 is Figure 8: automatic durability, two sizes per structure,
// update-ratio sweep, normalized to the non-persistent baseline.
func fig8(_ int, small, invalidate bool) []View {
	sizes := []struct {
		name string
		of   func(string) uint64
	}{{"small", smallSize}, {"large", largeSize}}
	if small {
		sizes = sizes[:1]
	}
	var views []View
	for _, size := range sizes {
		for _, ds := range DataStructures {
			n := size.of(ds)
			v := View{
				Title:   fmt.Sprintf("Figure 8: %s (%s, %d keys), automatic, normalized", ds, size.name, n),
				ColHead: `policy \ update%`, Cols: updCols, Unit: "fraction of non-persistent throughput",
				Metric: "throughput", Over: core.PolicyNoPersist,
				Notes: []string{"paper: more updates -> lower fraction; large sizes approach 1.0 (traversal-dominated)"},
			}
			for _, pol := range fig8Series {
				if pol == core.PolicyLAP && ds == "bst" {
					continue
				}
				c := SetCell{DS: ds, Policy: pol, Mode: dstruct.Automatic, KeyRange: n, Invalidate: invalidate}
				v.addRow(c.PolicyLabel(), perUpd(c)...)
			}
			views = append(views, v)
		}
	}
	return views
}

// fig9 is Figure 9: pwb instructions per operation for the hashtable
// (10K keys) and list (128 keys) at 5% updates, automatic and manual
// durability.
func fig9(_ int, _, invalidate bool) []View {
	v := flushes("Figure 9: flushes per operation, 5% updates", `policy \ structure/mode`,
		[]string{"ht/auto", "ht/manual", "list/auto", "list/manual"},
		"paper: counts are similar across FliT variants; flit-adjacent/link-and-persist inflate on list/auto only under invalidating clwb (see ablation A)")
	for _, pol := range fig8Series {
		v.addRow(SetCell{Policy: pol}.PolicyLabel(),
			headline("hashtable", pol, dstruct.Automatic, invalidate), headline("hashtable", pol, dstruct.Manual, invalidate),
			headline("list", pol, dstruct.Automatic, invalidate), headline("list", pol, dstruct.Manual, invalidate))
	}
	return []View{v}
}

// ablationInvalidate (ablation A) repeats the Figure 9 list/automatic
// cell with clwb-invalidation modeling off and on: the paper attributes
// flit-adjacent's extra flushes to the invalidating clwb of Cascade Lake.
func ablationInvalidate(int, bool, bool) []View {
	v := flushes("Ablation A: clwb invalidation effect (list 128 keys, automatic, 5% updates)", `policy \ clwb model`,
		[]string{"non-invalidating", "invalidating"},
		"paper observes the 'invalidating' column on hardware; non-invalidating is Intel's documented intent")
	for _, pol := range fig8Series {
		v.addRow(SetCell{Policy: pol}.PolicyLabel(),
			headline("list", pol, dstruct.Automatic, false), headline("list", pol, dstruct.Automatic, true))
	}
	return []View{v}
}

// ablationPacked (ablation B) compares word-wide and packed (8/word)
// flit-counters at small table sizes: packing multiplies counters per
// byte but increases false sharing (paper §5.1).
func ablationPacked(_ int, _, invalidate bool) []View {
	v := mops("Ablation B: packed flit-counters (automatic BST, 10K keys)", `scheme \ update%`, updCols)
	for _, bytes := range []int{4 << 10, 64 << 10} {
		for _, pol := range []string{core.PolicyHT, core.PolicyPacked} {
			c := headline("bst", pol, dstruct.Automatic, invalidate)
			c.HTBytes = bytes
			v.addRow(c.PolicyLabel(), perUpd(c)...)
		}
	}
	return []View{v}
}

// ablationPerLine (ablation C) evaluates the paper's future-work
// variant: one flit-counter per cache line, against the evaluated
// placements.
func ablationPerLine(_ int, _, invalidate bool) []View {
	v := mops("Ablation C: per-cache-line counters (automatic, small sizes, 5% updates)", `policy \ structure`, DataStructures)
	for _, pol := range []string{core.PolicyHT, core.PolicyAdjacent, core.PolicyPerLine} {
		v.addRow(SetCell{Policy: pol}.PolicyLabel(), perDS(pol, dstruct.Automatic, invalidate)...)
	}
	return []View{v}
}

// ablationIzraelevitz (ablation D) adds the original Izraelevitz et al.
// construction (§3.1) — pwb+pfence accompanying every p-load — as the
// historical baseline under the automatic transformation. FliT's "up to
// 200x over plain flush instructions" headline is measured against this
// kind of construction.
func ablationIzraelevitz(_ int, _, invalidate bool) []View {
	v := mops("Ablation D: Izraelevitz baseline (automatic, small sizes, 5% updates)", `policy \ structure`, DataStructures,
		"paper: FliT is up to 200x the plain-flush construction; izraelevitz fences every p-load")
	for _, pol := range []string{core.PolicyIz, core.PolicyPlain, core.PolicyHT} {
		v.addRow(SetCell{Policy: pol}.PolicyLabel(), perDS(pol, dstruct.Automatic, invalidate)...)
	}
	return []View{v}
}

// ablationZipf (ablation E) measures skewed-access contention: the paper
// argues FliT's largest benefits appear in contended workloads (§7). Hot
// keys concentrate p-stores on few locations, stretching tagged windows
// and stressing counter placement.
func ablationZipf(_ int, _, invalidate bool) []View {
	v := mops("Ablation E: access skew (automatic BST, 10K keys, 50% updates)", `policy \ zipf s`,
		[]string{"uniform", "s=1.2", "s=2.0"},
		"hot keys concentrate flit-counter traffic; FliT must keep its lead under skew")
	for _, pol := range []string{core.PolicyPlain, core.PolicyAdjacent, core.PolicyHT, core.PolicyPerLine} {
		row := make([]SetCell, 3)
		for i, s := range []float64{0, 1.2, 2.0} {
			row[i] = headline("bst", pol, dstruct.Automatic, invalidate)
			row[i].UpdatePct, row[i].ZipfS = 50, s
		}
		v.addRow(row[0].PolicyLabel(), row...)
	}
	return []View{v}
}
