// Package experiments implements the paper-reproduction harness: one
// function per experiment E1–E22 and ablation A1–A2 from DESIGN.md, each
// returning a Table whose rows quantify one qualitative claim of the
// paper. Registry lists them all; cmd/benchreport prints every table and
// the root bench_test.go runs one sub-benchmark per registered spec, so
// `go test -bench` regenerates the full evaluation.
package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Table is one experiment's result: an id, the paper claim it
// quantifies, and a rectangular result grid.
type Table struct {
	ID    string
	Title string
	// Claim cites the qualitative statement from the paper (with its
	// section) that the numbers substantiate.
	Claim   string
	Columns []string
	Rows    [][]string
}

// CI is a sample mean with a symmetric 95% confidence half-width, the
// cell type emitted by the multi-seed replication merge (internal/runner).
// It renders as "12.3 ± 0.4".
type CI struct {
	Mean float64
	Half float64 // half-width of the 95% confidence interval
}

func (c CI) String() string {
	return fmtMeasure(c.Mean) + " ± " + fmtMeasure(c.Half)
}

// MinMax is an observed per-seed range, rendered as "11.9..12.8".
type MinMax struct {
	Min float64
	Max float64
}

func (m MinMax) String() string {
	return fmtMeasure(m.Min) + ".." + fmtMeasure(m.Max)
}

// fmtMeasure renders an aggregated measurement with adaptive precision:
// four significant digits, fixed-point where that stays readable, no
// trailing zeros. Unlike the raw-cell %.3f it must cope with cells whose
// native scale ranges from miss-rate fractions to frame counts in the
// tens of thousands.
func fmtMeasure(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.IsInf(v, 0) || math.IsNaN(v):
		return strconv.FormatFloat(v, 'g', -1, 64)
	case math.Abs(v) >= 1e6 || math.Abs(v) < 1e-3:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
	digits := int(math.Floor(math.Log10(math.Abs(v)))) + 1
	dec := 4 - digits
	if dec < 0 {
		dec = 0
	}
	s := strconv.FormatFloat(v, 'f', dec, 64)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(s, "0")
		s = strings.TrimRight(s, ".")
	}
	return s
}

// AddRow appends a row, formatting each cell with %v. float64 cells keep
// the historical fixed %.3f rendering (single-seed tables and goldens
// depend on it); CI and MinMax cells use the adaptive measurement format.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case string:
			row[i] = v
		case CI:
			row[i] = v.String()
		case MinMax:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "  claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		b.WriteString("  ")
		for i, cell := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}
