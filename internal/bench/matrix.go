package bench

import (
	"fmt"
	"runtime"
	"time"

	"flit/internal/bench/stats"
	"flit/internal/core"
	"flit/internal/dstruct"
)

// Matrix declares a benchmark run: which set cells, and how each is
// measured (threads, warmup, measured duration, repeats). Zero values
// take defaults scaled to the host.
type Matrix struct {
	Name     string
	Threads  int           // default GOMAXPROCS
	Duration time.Duration // per measured repeat; default 100ms
	// Warmup is the discarded warm-up window per cell; zero defaults to
	// Duration/2, any negative value means "no warmup".
	Warmup  time.Duration
	Repeats int // measured repeats per cell; default 2
	// VirtualClock runs every cell with pmem's virtual-clock cost mode:
	// modeled latency accrues to per-thread counters instead of spin
	// loops. Single-threaded runs execute the identical instruction
	// stream either way, so their pwbs/op cells match spin-mode runs
	// exactly; with more threads, different interleavings can shift
	// pwbs/op slightly (reader-helping flushes, CAS retries). Throughput
	// cells are NOT comparable with spin-mode reports in any case — the
	// report's config records the mode.
	VirtualClock bool
	Set          []SetCell
}

func (m Matrix) withDefaults() Matrix {
	if m.Threads == 0 {
		m.Threads = runtime.GOMAXPROCS(0)
	}
	if m.Duration == 0 {
		m.Duration = 100 * time.Millisecond
	}
	if m.Warmup == 0 {
		m.Warmup = m.Duration / 2
	}
	if m.Warmup < 0 {
		m.Warmup = 0
	}
	if m.Repeats == 0 {
		m.Repeats = 2
	}
	return m
}

// Config renders the matrix knobs for the report header.
func (m Matrix) Config() map[string]string {
	return map[string]string{
		"matrix":   m.Name,
		"threads":  fmt.Sprint(m.Threads),
		"duration": m.Duration.String(),
		"warmup":   m.Warmup.String(),
		"repeats":  fmt.Sprint(m.Repeats),
		"vclock":   fmt.Sprint(m.VirtualClock),
	}
}

// Run executes every cell — warmup window discarded, repeats folded
// through the stats kernel — and returns the validated report.
func (m Matrix) Run() (*Report, error) {
	m = m.withDefaults()
	if len(m.Set) == 0 {
		return nil, fmt.Errorf("bench: matrix %q has no cells", m.Name)
	}
	rep := NewReport("bench-matrix", m.Config())
	for _, group := range planSet(m.Set) {
		if err := m.runSet(rep, group); err != nil {
			return nil, fmt.Errorf("bench: cell %s: %w", group[0].ID(), err)
		}
	}
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return rep, nil
}

// window is what one timed window of a set cell hands runSet.
type window struct {
	ops, pwbs, pfences   uint64
	elided               uint64 // dependency fences not issued
	opsPerSec, pwbsPerOp float64
}

// runSet measures one group of set cells that share their build fields
// on one built-and-prefilled instance. Each cell runs a discarded warmup
// window, then m.Repeats measured windows, and adds its pair to rep:
// ops/s carrying the summed raw counts, and pwbs/op.
func (m Matrix) runSet(rep *Report, group []SetCell) error {
	perCell := m.Warmup + m.Duration*time.Duration(m.Repeats)
	inst, err := NewInstance(group[0], m.VirtualClock, perCell*time.Duration(len(group)))
	if err != nil {
		return err
	}
	for _, c := range group {
		threads := c.Threads
		if threads == 0 {
			threads = m.Threads
		}
		if m.Warmup > 0 {
			inst.run(c, threads, m.Warmup)
		}
		head := Cell{ID: c.ID() + "/throughput", Unit: "ops/s"}
		var tput, pwbRate []float64
		for i := 0; i < m.Repeats; i++ {
			w := inst.run(c, threads, m.Duration)
			tput = append(tput, w.opsPerSec)
			pwbRate = append(pwbRate, w.pwbsPerOp)
			head.Ops += w.ops
			head.PWBs += w.pwbs
			head.PFences += w.pfences
			head.PFencesElided += w.elided
		}
		head.Value = stats.Summarize(tput)
		rep.Add(head)
		rep.Add(Cell{ID: c.ID() + "/pwbs_per_op", Unit: "pwbs/op", Value: stats.Summarize(pwbRate), LowerIsBetter: true})
	}
	return nil
}

// CrossSet expands the cross product of structures × policies × modes ×
// update ratios into set cells, skipping the one inapplicable
// combination (link-and-persist on the NM-BST, as in Figure 7).
func CrossSet(dss, policies []string, modes []dstruct.Mode, keyRange uint64, upds []int) []SetCell {
	var out []SetCell
	for _, ds := range dss {
		for _, pol := range policies {
			if pol == core.PolicyLAP && ds == "bst" {
				continue
			}
			for _, mode := range modes {
				for _, u := range upds {
					out = append(out, SetCell{
						DS: ds, Policy: pol, Mode: mode, KeyRange: keyRange, UpdatePct: u,
					})
				}
			}
		}
	}
	return out
}

// Presets are the named matrices the CLI and CI run. "smoke" is a small
// fixed grid, cheap enough for every push. "full" is the larger grid:
// every structure and headline policy.
func Presets() map[string]Matrix {
	return map[string]Matrix{
		"smoke": {
			Name:     "smoke",
			Duration: 80 * time.Millisecond,
			Warmup:   40 * time.Millisecond,
			Repeats:  2,
			Set: CrossSet(
				[]string{"bst", "hashtable"},
				[]string{core.PolicyPlain, core.PolicyHT},
				[]dstruct.Mode{dstruct.Automatic},
				4096, []int{0, 50},
			),
		},
		"full": {
			Name:     "full",
			Duration: 200 * time.Millisecond,
			Warmup:   100 * time.Millisecond,
			Repeats:  3,
			Set: CrossSet(
				[]string{"bst", "hashtable", "list", "skiplist"},
				[]string{core.PolicyPlain, core.PolicyAdjacent, core.PolicyHT, core.PolicyLAP},
				[]dstruct.Mode{dstruct.Automatic},
				10_000, []int{0, 5, 50},
			),
		},
	}
}

// Preset looks up a named matrix.
func Preset(name string) (Matrix, bool) {
	m, ok := Presets()[name]
	return m, ok
}

// PresetNames lists the preset matrices in a stable order.
func PresetNames() []string {
	return []string{"smoke", "full"}
}
