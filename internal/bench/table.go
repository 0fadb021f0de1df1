package bench

import (
	"fmt"
	"strings"
)

// View lays set cells out as one of the paper's tables: which cell
// sits at which row and column, which of its report cells is shown, and
// what it is divided by. It holds no numbers — Table renders them from
// a Report, so the figure and the JSON report are two readings of one
// measurement.
type View struct {
	Title string
	// ColHead labels the two dimensions (e.g. `policy \ update%`).
	ColHead string
	Cols    []string
	Rows    []ViewRow
	// Unit annotates the rendered values (e.g. "Mops/s", "pwbs/op").
	Unit string
	// Metric is the report-cell suffix the view reads: "throughput" or
	// "pwbs_per_op". Scale multiplies it (1e-6: ops/s → Mops/s); zero
	// means 1.
	Metric string
	Scale  float64
	// Over, when set, normalises every value by the same cell measured
	// under this policy (Figure 8: no-persist; Figure 7's summary: plain).
	Over string
	// Notes carries caveats shown under the table.
	Notes []string
}

// ViewRow is one series. A zero SetCell marks an inapplicable
// combination (link-and-persist on the NM-BST), rendered "-".
type ViewRow struct {
	Label string
	Cells []SetCell
}

func (v *View) addRow(label string, cells ...SetCell) {
	v.Rows = append(v.Rows, ViewRow{Label: label, Cells: cells})
}

// base is the cell c is normalised by under v.Over.
func (v View) base(c SetCell) SetCell {
	c.Policy, c.HTBytes = v.Over, 0
	return c
}

// cells returns every cell the view reads — shown cells and, before
// each, its normalising baseline.
func (v View) cells() []SetCell {
	var out []SetCell
	for _, row := range v.Rows {
		for _, c := range row.Cells {
			if c.DS == "" {
				continue
			}
			if v.Over != "" {
				out = append(out, v.base(c))
			}
			out = append(out, c)
		}
	}
	return out
}

// Table renders the view from rep: each value is the mean of the
// cell's Metric report cell, scaled, over its baseline's if normalised.
// Cells the report lacks render as 0 ("-").
func (v View) Table(rep *Report) *Table {
	t := &Table{Title: v.Title, ColHead: v.ColHead, Cols: v.Cols, Unit: v.Unit, Notes: v.Notes}
	scale := v.Scale
	if scale == 0 {
		scale = 1
	}
	for _, row := range v.Rows {
		vals := make([]float64, len(row.Cells))
		for i, c := range row.Cells {
			if c.DS == "" {
				continue
			}
			vals[i] = rep.Mean(c.ID()+"/"+v.Metric) * scale
			if v.Over != "" {
				if b := rep.Mean(v.base(c).ID() + "/" + v.Metric); b > 0 {
					vals[i] /= b
				} else {
					vals[i] = 0
				}
			}
		}
		t.AddRow(row.Label, vals...)
	}
	return t
}

// Table is a formatted experiment result: one row per series, one column
// per x-value, mirroring how the paper's plots are read.
type Table struct {
	Title   string
	ColHead string
	Cols    []string
	Rows    []TableRow
	Unit    string
	Notes   []string
}

// TableRow is one series.
type TableRow struct {
	Label string
	Cells []float64
}

// AddRow appends a series.
func (t *Table) AddRow(label string, cells ...float64) {
	t.Rows = append(t.Rows, TableRow{Label: label, Cells: cells})
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s  [%s]\n", t.Title, t.Unit)
	width := 28
	for _, r := range t.Rows {
		if len(r.Label) > width {
			width = len(r.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s", width+2, t.ColHead)
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%15s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", width+2, r.Label)
		for _, v := range r.Cells {
			fmt.Fprintf(&b, "%15s", fmtCell(v))
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values for plotting.
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s [%s]\n", t.Title, t.Unit)
	fmt.Fprintf(&b, "%s", csvEscape(t.ColHead))
	for _, c := range t.Cols {
		fmt.Fprintf(&b, ",%s", csvEscape(c))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s", csvEscape(r.Label))
		for _, v := range r.Cells {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func fmtCell(v float64) string {
	switch {
	case v == 0:
		return "-"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
