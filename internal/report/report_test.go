package report

import (
	"strings"
	"testing"

	"binopt/internal/device"
	"binopt/internal/hls"
	"binopt/internal/kernels"
	"binopt/internal/perf"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("a", "bb", "ccc")
	tbl.AddRow("1", "2", "3")
	tbl.AddRow("longer", "x") // ragged row
	s := tbl.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[0], "a") || !strings.Contains(lines[0], "ccc") {
		t.Errorf("header: %q", lines[0])
	}
	if !strings.Contains(lines[2], "1") {
		t.Errorf("row: %q", lines[2])
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("x", "y")
	tbl.AddRow("a,b", `say "hi"`)
	csv := tbl.CSV()
	if !strings.Contains(csv, `"a,b"`) {
		t.Errorf("comma cell not quoted: %q", csv)
	}
	if !strings.Contains(csv, `"say ""hi"""`) {
		t.Errorf("quote cell not escaped: %q", csv)
	}
	if !strings.HasPrefix(csv, "x,y\n") {
		t.Errorf("header: %q", csv)
	}
}

func TestSci(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		25:     "25",
		2400:   "2400",
		47000:  "47000",
		1.7:    "1.7",
		0.4:    "0.4",
		1.3e9:  "1.3e+09",
		13e6:   "1.3e+07",
		0.0001: "0.0001",
	}
	for in, want := range cases {
		if got := Sci(in); got != want {
			t.Errorf("Sci(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestRMSENote(t *testing.T) {
	if got := RMSENote(0); got != "0" {
		t.Errorf("RMSENote(0) = %q", got)
	}
	if got := RMSENote(1e-12); got != "0" {
		t.Errorf("RMSENote(1e-12) = %q", got)
	}
	if got := RMSENote(2.4e-3); got != "~1e-3" {
		t.Errorf("RMSENote(2.4e-3) = %q", got)
	}
	if got := RMSENote(9e-4); got != "~1e-3" {
		t.Errorf("RMSENote(9e-4) = %q", got)
	}
}

func TestPublishedBaselines(t *testing.T) {
	bs := PublishedBaselines()
	if len(bs) != 2 {
		t.Fatalf("got %d baselines", len(bs))
	}
	if bs[0].OptionsPerSec != 385 || bs[1].OptionsPerSec != 1152 {
		t.Error("baseline throughput values do not match Table II")
	}
}

func TestFormatTable1(t *testing.T) {
	board := device.DE4()
	fitA, err := hls.Fit(board, kernels.ProfileIVA(), kernels.PaperKnobsIVA())
	if err != nil {
		t.Fatal(err)
	}
	fitB, err := hls.Fit(board, kernels.ProfileIVB(1024), kernels.PaperKnobsIVB())
	if err != nil {
		t.Fatal(err)
	}
	s := BuildTable1(board.Chip.Name, board.Chip.Registers, board.Chip.M9K,
		board.Chip.DSP18, board.Chip.MemoryBits, fitA, fitB).String()
	for _, want := range []string{"Logic utilization", "including M9K", "DSP (18-bit)",
		"Clock Frequency", "Power consumption", "kernel-IV.A", "kernel-IV.B", "MHz"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q:\n%s", want, s)
		}
	}
}

func TestFormatTable2(t *testing.T) {
	rows := []Table2Row{{
		Kernel:    "IV.B",
		Platform:  "EP4SGX530",
		Precision: "double",
		Estimate: perf.Estimate{
			OptionsPerSec: 2400, OptionsPerJoule: 140, NodesPerSec: 1.3e9,
		},
		RMSE:      1.2e-3,
		RMSEKnown: true,
	}}
	s := BuildTable2(rows, PublishedBaselines()).String()
	for _, want := range []string{"Kernel IV.B", "~1e-3", "options/J", "[9] Jin", "[10] Wynnyk", "N/A"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table II missing %q:\n%s", want, s)
		}
	}
}

func TestFormatSaturation(t *testing.T) {
	pts := perf.SaturationCurve(2400, 100000, []int64{100, 100000})
	s := FormatSaturation("FPGA IV.B", pts)
	if !strings.Contains(s, "100000") || !strings.Contains(s, "options/s") {
		t.Errorf("saturation table:\n%s", s)
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := NewTable("a", "b")
	tbl.AddRow("1", "x|y")
	md := tbl.Markdown()
	if !strings.HasPrefix(md, "| a | b |\n|---|---|\n") {
		t.Errorf("markdown header:\n%s", md)
	}
	if !strings.Contains(md, `x\|y`) {
		t.Errorf("pipe not escaped:\n%s", md)
	}
}
