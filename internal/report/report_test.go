package report

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestTable1Render(t *testing.T) {
	out := Table1()
	for _, want := range []string{"Rocks 6.1.1", "choose one", "ganglia", "zfs-linux"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Render(t *testing.T) {
	out := Table2()
	for _, want := range []string{"Compilers, libraries, and programming", "gromacs", "Scheduler and Resource Manager", "gffs"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestTable3TotalsMatchPaper(t *testing.T) {
	rows := Table3Rows()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	var nodes, cores int
	var tf float64
	for _, r := range rows {
		nodes += r.Nodes
		cores += r.Cores
		tf += r.TFlops
	}
	if nodes != 304 {
		t.Errorf("total nodes = %d, want 304", nodes)
	}
	if cores != 2708 {
		t.Errorf("total cores = %d, want 2708", cores)
	}
	if math.Abs(tf-49.61) > 0.015 {
		t.Errorf("total TF = %.2f, want 49.61", tf)
	}
	out := Table3()
	if !strings.Contains(out, "Marshall") || !strings.Contains(out, "Total") {
		t.Errorf("Table 3 render:\n%s", out)
	}
}

func TestTable4Render(t *testing.T) {
	out := Table4()
	for _, want := range []string{"LittleFe", "Limulus HPC200", "2.8 GHz", "3.1 GHz"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 missing %q:\n%s", want, out)
		}
	}
}

func TestTable5ShapeMatchesPaper(t *testing.T) {
	rows := Table5Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	lf, lim := rows[0], rows[1]
	if lf.System != "LittleFe" || lim.System != "Limulus HPC200" {
		t.Fatalf("row order: %s, %s", lf.System, lim.System)
	}
	// Rpeak columns are exact.
	if math.Abs(lf.RpeakGF-537.6) > 0.01 || math.Abs(lim.RpeakGF-793.6) > 0.01 {
		t.Errorf("Rpeak = %.1f / %.1f", lf.RpeakGF, lim.RpeakGF)
	}
	// Limulus Rmax is anchored to the paper's 498.3 measurement.
	if math.Abs(lim.RmaxGF-498.3)/498.3 > 0.02 {
		t.Errorf("Limulus Rmax = %.1f, want ~498.3", lim.RmaxGF)
	}
	// Shape: Limulus wins absolute Rmax; LittleFe wins $/GFLOPS both ways.
	if lim.RmaxGF <= lf.RmaxGF {
		t.Error("Limulus should have higher Rmax")
	}
	if lf.DollarPerGFPeak >= lim.DollarPerGFPeak {
		t.Error("LittleFe should win $/GF at Rpeak")
	}
	if lf.DollarPerGFMax >= lim.DollarPerGFMax {
		t.Error("LittleFe should win $/GF at Rmax")
	}
	// Paper's rounded Rpeak $/GF: $7 vs $8.
	if math.Round(lf.DollarPerGFPeak) != 7 || math.Round(lim.DollarPerGFPeak) != 8 {
		t.Errorf("Rpeak $/GF = %.2f / %.2f, paper rounds to 7 / 8",
			lf.DollarPerGFPeak, lim.DollarPerGFPeak)
	}
	out := Table5()
	if !strings.Contains(out, "hardware failure") {
		t.Error("Table 5 should carry the LittleFe estimation note")
	}
}

func TestFigures(t *testing.T) {
	for i := 1; i <= 3; i++ {
		fig, err := Figure(i)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(fig, "substitute") {
			t.Errorf("figure %d should declare itself a substitute", i)
		}
	}
	if _, err := Figure(4); err == nil {
		t.Fatal("figure 4 does not exist")
	}
}

func TestAllIncludesEverything(t *testing.T) {
	out := All()
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
		"Figure 1", "Figure 2", "Figure 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("All() missing %q", want)
		}
	}
}

// TestAllMatchesGolden pins what cmd/tables prints with no flags: Tables
// 1-5 and the three figure substitutes, byte for byte. The golden was
// captured at commit 4af5118; regenerate it with
// `go run ./cmd/tables > internal/report/testdata/all.golden` only when
// a paper table is meant to change.
func TestAllMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := All(); got != string(want) {
		t.Errorf("All() drifted from testdata/all.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}
