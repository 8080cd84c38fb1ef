package report

import (
	"fmt"

	"binopt/internal/hls"
	"binopt/internal/perf"
)

// BuildTable1 assembles the Table I structure for text or CSV rendering.
func BuildTable1(chipName string, totalRegs int, totalM9K int, totalDSP int, totalBits int64, reports ...hls.FitReport) *Table {
	t := NewTable(append([]string{chipName}, names(reports)...)...)
	row := func(label string, cell func(hls.FitReport) string) {
		cells := []string{label}
		for _, r := range reports {
			cells = append(cells, cell(r))
		}
		t.AddRow(cells...)
	}
	row("Parallelisation", func(r hls.FitReport) string { return r.Knobs.String() })
	row("Logic utilization", func(r hls.FitReport) string { return fmt.Sprintf("%.0f %%", r.LogicUtilPct) })
	row("Registers", func(r hls.FitReport) string {
		return fmt.Sprintf("%d K/%d K", r.Registers/1024, totalRegs/1024)
	})
	row("Memory bits", func(r hls.FitReport) string {
		return fmt.Sprintf("%d K/%d K (%.0f %%)", r.MemoryBits/1024, totalBits/1024,
			100*float64(r.MemoryBits)/float64(totalBits))
	})
	row("including M9K", func(r hls.FitReport) string {
		return fmt.Sprintf("%d/%d (%.0f %%)", r.M9K, totalM9K, 100*float64(r.M9K)/float64(totalM9K))
	})
	row("DSP (18-bit)", func(r hls.FitReport) string {
		return fmt.Sprintf("%d/%d (%.0f %%)", r.DSP18, totalDSP, 100*float64(r.DSP18)/float64(totalDSP))
	})
	row("Clock Frequency", func(r hls.FitReport) string { return fmt.Sprintf("%.2f MHz", r.FmaxMHz) })
	row("Power consumption", func(r hls.FitReport) string { return fmt.Sprintf("%.1f W", r.PowerWatts) })
	return t
}

func names(reports []hls.FitReport) []string {
	out := make([]string, len(reports))
	for i, r := range reports {
		out[i] = r.Kernel
	}
	return out
}

// Table2Row is one measured column of the performance comparison.
type Table2Row struct {
	Kernel    string
	Platform  string
	Precision string
	Estimate  perf.Estimate
	RMSE      float64
	// RMSEKnown is false for rows where accuracy was not measured (the
	// published baselines).
	RMSEKnown bool
	RMSEText  string // rendered note; filled from RMSE when known
}

// BuildTable2 assembles the Table II structure for text or CSV rendering.
func BuildTable2(rows []Table2Row, baselines []Baseline) *Table {
	t := NewTable("", "Platform", "Precision", "options/s", "RMSE", "options/J", "Tree nodes/s")
	for _, r := range rows {
		note := r.RMSEText
		if note == "" && r.RMSEKnown {
			note = RMSENote(r.RMSE)
		}
		label := "Kernel " + r.Kernel
		if r.Kernel == "reference" {
			label = "Reference Software"
		}
		t.AddRow(
			label,
			r.Platform,
			r.Precision,
			Sci(r.Estimate.OptionsPerSec),
			note,
			Sci(r.Estimate.OptionsPerJoule),
			Sci(r.Estimate.NodesPerSec),
		)
	}
	for _, b := range baselines {
		t.AddRow(b.Label, b.Platform, b.Precision, Sci(b.OptionsPerSec), b.RMSENote, "N/A", Sci(b.NodesPerSec))
	}
	return t
}

// FormatSaturation renders the §V-C saturation sweep.
func FormatSaturation(label string, points []perf.CurvePoint) string {
	t := NewTable("options", label+" options/s", "seconds")
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%d", p.Options), Sci(p.OptionsPerSec), Sci(p.Seconds))
	}
	return t.String()
}
