package main

import (
	"strconv"
	"strings"
	"testing"

	"shift"
)

// TestPrefetcherComparison runs the example on four cores with
// 8,000-record windows and checks its README: a Baseline row and then
// one row per Figure 8 design in FigureDesigns order, every design
// faster than the baseline and paying prefetch traffic, and history
// traffic in the LLC for SHIFT alone.
func TestPrefetcherComparison(t *testing.T) {
	cfg := shift.DefaultRunConfig("Web Frontend", shift.DesignBaseline)
	cfg.Cores, cfg.WarmupRecords, cfg.MeasureRecords = 4, 8000, 8000
	var out strings.Builder
	if err := run(&out, cfg); err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out.String())
	var rows [][]string
	for _, line := range strings.Split(out.String(), "\n")[1:] {
		if f := strings.Fields(line); len(f) == 6 {
			rows = append(rows, f)
		}
	}
	designs := shift.FigureDesigns()
	if len(rows) != 1+len(designs) || rows[0][0] != "Baseline" {
		t.Fatalf("got %d rows, want Baseline and then one per design %v", len(rows), designs)
	}
	for i, d := range designs {
		row := rows[i+1]
		if row[0] != d.String() {
			t.Errorf("row %d is %s, want %s", i+1, row[0], d)
			continue
		}
		if sp, err := strconv.ParseFloat(row[1], 64); err != nil || sp <= 1 {
			t.Errorf("%s speedup %s, want > 1", d, row[1])
		}
		if traf, err := strconv.ParseInt(row[4], 10, 64); err != nil || traf <= 0 {
			t.Errorf("%s prefetch traffic %s, want > 0", d, row[4])
		}
		if hasHist := row[5] != "-"; hasHist != (d == shift.DesignSHIFT) {
			t.Errorf("%s history traffic %s: only SHIFT keeps its history in the LLC", d, row[5])
		}
	}
}
