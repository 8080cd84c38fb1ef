// Package report renders the reproduction's results in the paper's own
// table layouts (Table I resource usage, Table II performances) plus CSV
// for downstream tooling, and carries the published baseline rows the
// paper compares against ([9] Jin et al. on a Virtex 4, [10] Wynnyk &
// Magdon-Ismail on a Stratix III).
package report

import (
	"fmt"
	"math"
	"strings"
)

// Baseline is a published comparison row quoted, not re-measured, exactly
// as the paper does.
type Baseline struct {
	Label         string
	Platform      string
	Precision     string
	OptionsPerSec float64
	NodesPerSec   float64
	RMSENote      string
}

// PublishedBaselines returns the two related-work rows of Table II.
func PublishedBaselines() []Baseline {
	return []Baseline{
		{
			Label:         "[9] Jin et al.",
			Platform:      "Virtex 4 xc4vsx55",
			Precision:     "double",
			OptionsPerSec: 385,
			NodesPerSec:   202e6,
			RMSENote:      "0",
		},
		{
			Label:         "[10] Wynnyk et al.",
			Platform:      "Stratix III EP3SE260",
			Precision:     "double",
			OptionsPerSec: 1152,
			NodesPerSec:   576e6,
			RMSENote:      "0",
		},
	}
}

// Table is a minimal text-table builder: fixed header, ragged-safe rows,
// column widths fitted to content.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends one row; missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, w := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w, c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (cells containing
// commas or quotes are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Sci formats a float in compact scientific-or-plain notation the way the
// paper's tables read.
func Sci(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x >= 1e6 || x < 1e-3:
		return fmt.Sprintf("%.3g", x)
	case x >= 100:
		return fmt.Sprintf("%.0f", x)
	case x >= 1:
		return fmt.Sprintf("%.3g", x)
	default:
		return fmt.Sprintf("%.2g", x)
	}
}

// RMSENote renders a measured RMSE the way Table II quotes it: "0" for
// machine-precision agreement, the nearest order of magnitude otherwise
// (5.6e-4 reads "~1e-3", as the paper rounds).
func RMSENote(rmse float64) string {
	if rmse < 1e-9 {
		return "0"
	}
	exp := int(math.Round(math.Log10(rmse)))
	return fmt.Sprintf("~1e%d", exp)
}
