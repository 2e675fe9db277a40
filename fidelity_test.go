package shift

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"shift/internal/area"
	"shift/internal/core"
	"shift/internal/history"
	"shift/internal/race"
	"shift/internal/sim"
)

var update = flag.Bool("update", false, "rewrite FIDELITY.md from the current reproduction")

// fidelityRun holds every driver's result at one scale.
type fidelityRun struct {
	storage *StorageReport
	fig1    *Figure1
	fig3    *Figure3
	fig6    *Figure6
	fig7    *Figure7
	fig8    *Figure8
	fig9    *Figure9
	fig10   *Figure10
	pd      *PerfDensity
	power   *PowerStudy
	sens    *Sensitivity
	gen     *GeneratorStudy
}

// must returns v; a driver that fails under valid options is a bug, so
// err panics.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// runFidelity runs every driver once under o.
func runFidelity(o Options) *fidelityRun {
	return &fidelityRun{
		storage: RunStorageReport(),
		fig1:    must(RunFigure1(o)),
		fig3:    must(RunFigure3(o)),
		fig6:    must(RunFigure6(o, nil)),
		fig7:    must(RunFigure7(o)),
		fig8:    must(RunFigure8(o)),
		fig9:    must(RunFigure9(o)),
		fig10:   must(RunFigure10(o)),
		pd:      must(RunPerfDensity(o)),
		power:   must(RunPowerStudy(o)),
		sens:    must(RunSensitivity(o)),
		gen:     must(RunGeneratorStudy(o)),
	}
}

// b2f is a qualitative claim's reproduced value: 1 when it holds.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// bestOf returns the best value the Section 4.1 sweep found for param.
func bestOf(r *fidelityRun, param string) float64 {
	v, _ := r.sens.Best(param)
	return float64(v)
}

// measures reproduces each row of paperRows, by id.
var measures = map[string]func(r *fidelityRun) float64{
	"tableI.cores":       func(*fidelityRun) float64 { return float64(sim.DefaultConfig().Cores) },
	"tableI.l1i":         func(*fidelityRun) float64 { return float64(sim.DefaultConfig().L1I.SizeBytes) / 1024 },
	"tableI.llc":         func(*fidelityRun) float64 { return float64(sim.DefaultConfig().LLCBankBytes) / 1024 },
	"tableI.mem":         func(*fidelityRun) float64 { return float64(sim.MemCycles) / 2 }, // at 2GHz
	"sizing.record_bits": func(*fidelityRun) float64 { return float64(history.BitsPerRecord(core.DefaultConfig().SAB.Span)) },
	"sizing.records_per_block": func(*fidelityRun) float64 {
		return float64(history.RecordsPerCacheBlock(core.DefaultConfig().SAB.Span))
	},
	"sizing.pif_history_kb": func(*fidelityRun) float64 {
		return float64(area.PIFStorageBytes(core.PIFConfig(core.PIF32K).HistEntries, 0)) / 1024
	},
	"sizing.pif_index_kb": func(*fidelityRun) float64 {
		return float64(area.PIFStorageBytes(0, core.PIFConfig(core.PIF32K).IndexEntries)) / 1024
	},
	"storage.pif32k_kb":           func(r *fidelityRun) float64 { return r.storage.PIF32KPerCoreKB },
	"storage.pif32k_mm2":          func(r *fidelityRun) float64 { return r.storage.PIF32KPerCoreMM2 },
	"storage.pif32k_total_mm2":    func(r *fidelityRun) float64 { return r.storage.PIF32KAggregateMM2 },
	"storage.pif2k_kb":            func(r *fidelityRun) float64 { return r.storage.PIF2KPerCoreKB },
	"storage.shift_history_kb":    func(r *fidelityRun) float64 { return r.storage.SHIFTHistoryKB },
	"storage.shift_history_lines": func(r *fidelityRun) float64 { return float64(r.storage.SHIFTHistoryLines) },
	"storage.shift_index_kb":      func(r *fidelityRun) float64 { return r.storage.SHIFTIndexKB },
	"storage.shift_mm2":           func(r *fidelityRun) float64 { return r.storage.SHIFTTotalMM2 },
	"storage.area_ratio":          func(r *fidelityRun) float64 { return r.storage.AreaRatio },
	"storage.virtualized_pif_mb":  func(r *fidelityRun) float64 { return r.storage.VirtualizedPIFMB },
	"fig1.perfect":                func(r *fidelityRun) float64 { return r.fig1.PerfectGeoMean() },
	"fig3.mean":                   func(r *fidelityRun) float64 { return r.fig3.Mean() },
	"fig3.max": func(r *fidelityRun) float64 {
		best := 0.0
		for _, v := range r.fig3.Commonality {
			best = math.Max(best, v)
		}
		return best
	},
	"fig6.dominance":      func(r *fidelityRun) float64 { return b2f(r.fig6.SHIFTAlwaysAbovePIF()) },
	"fig7.shift.covered":  func(r *fidelityRun) float64 { return r.fig7.MeanCovered(DesignSHIFT) },
	"fig7.shift.over":     func(r *fidelityRun) float64 { return r.fig7.MeanOverpredicted(DesignSHIFT) },
	"fig7.pif32k.covered": func(r *fidelityRun) float64 { return r.fig7.MeanCovered(DesignPIF32K) },
	"fig7.pif32k.over":    func(r *fidelityRun) float64 { return r.fig7.MeanOverpredicted(DesignPIF32K) },
	"fig7.pif2k.covered":  func(r *fidelityRun) float64 { return r.fig7.MeanCovered(DesignPIF2K) },
	"fig7.pif2k.over":     func(r *fidelityRun) float64 { return r.fig7.MeanOverpredicted(DesignPIF2K) },
	"fig8.nextline":       func(r *fidelityRun) float64 { return r.fig8.Geo[DesignNextLine.String()] },
	"fig8.pif2k":          func(r *fidelityRun) float64 { return r.fig8.Geo[DesignPIF2K.String()] },
	"fig8.pif32k":         func(r *fidelityRun) float64 { return r.fig8.Geo[DesignPIF32K.String()] },
	"fig8.zerolat":        func(r *fidelityRun) float64 { return r.fig8.Geo[DesignZeroLatSHIFT.String()] },
	"fig8.shift":          func(r *fidelityRun) float64 { return r.fig8.Geo[DesignSHIFT.String()] },
	"fig8.order": func(r *fidelityRun) float64 {
		g := func(d Design) float64 { return r.fig8.Geo[d.String()] }
		return b2f(g(DesignNextLine) < g(DesignPIF2K) && g(DesignPIF2K) < g(DesignSHIFT) &&
			g(DesignSHIFT) <= g(DesignZeroLatSHIFT) && g(DesignZeroLatSHIFT) <= g(DesignPIF32K))
	},
	"fig8.retained": func(r *fidelityRun) float64 { return r.fig8.SHIFTRetainsPIFBenefit() * 100 },
	"fig8.max":      func(r *fidelityRun) float64 { return r.fig8.MaxSHIFTSpeedup() },
	"fig9.log":      func(r *fidelityRun) float64 { return r.fig9.MeanLogTraffic() },
	"fig9.discard":  func(r *fidelityRun) float64 { return r.fig9.MeanDiscard() },
	"fig9.worst": func(r *fidelityRun) float64 {
		name, _ := r.fig9.WorstTotal()
		return b2f(strings.EqualFold(name, paper("fig9.worst").text))
	},
	"fig9.worst_total":      func(r *fidelityRun) float64 { _, v := r.fig9.WorstTotal(); return v },
	"fig10.shift":           func(r *fidelityRun) float64 { return r.fig10.Geo[DesignSHIFT.String()] },
	"fig10.zerolat":         func(r *fidelityRun) float64 { return r.fig10.Geo[DesignZeroLatSHIFT.String()] },
	"fig10.shift_vs_pif32k": func(r *fidelityRun) float64 { return r.fig10.SHIFTvsPIF32KAbsolute() * 100 },
	"pd.fat":                func(r *fidelityRun) float64 { return r.pd.SHIFTPDGain(FatOoO) * 100 },
	"pd.lean":               func(r *fidelityRun) float64 { return r.pd.SHIFTPDGain(LeanOoO) * 100 },
	"pd.io":                 func(r *fidelityRun) float64 { return r.pd.SHIFTPDGain(LeanIO) * 100 },
	"pd.order": func(r *fidelityRun) float64 {
		g := func(ct CoreType) float64 { return r.pd.SHIFTPDGain(ct) }
		return b2f(g(FatOoO) < g(LeanOoO) && g(LeanOoO) < g(LeanIO))
	},
	"pd.pif32k_io": func(r *fidelityRun) float64 { return r.pd.Point(LeanIO, DesignPIF32K).PD },
	"power.max":    func(r *fidelityRun) float64 { return r.power.MaxMW },
	"power.per_core": func(r *fidelityRun) float64 {
		worst := 0.0
		for _, row := range r.power.Rows {
			worst = math.Max(worst, row.PerLeanIOCorePct)
		}
		return worst
	},
	"sec4.1.span":      func(r *fidelityRun) float64 { return bestOf(r, "region span") },
	"sec4.1.lookahead": func(r *fidelityRun) float64 { return bestOf(r, "lookahead") },
	"sec4.1.capacity":  func(r *fidelityRun) float64 { return bestOf(r, "SAB capacity") },
	"sec4.1.streams":   func(r *fidelityRun) float64 { return bestOf(r, "streams") },
	"sec6.1.spread":    func(r *fidelityRun) float64 { return r.gen.Spread * 100 },
}

// pass reports whether reproduced value v meets the row. NaN and ±Inf
// never do.
func (r paperRow) pass(v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return false
	}
	switch r.cmp {
	case gain:
		return math.Abs(v-r.value) <= r.tol*math.Abs(r.value-1)
	case points:
		return math.Abs(v-r.value) <= r.tol
	case above:
		return v > r.value
	case below:
		return v < r.value
	case exact:
		return math.Round(v/r.tol) == math.Round(r.value/r.tol)
	}
	return r.cmp == holds && v == 1
}

// verdict is a row's Pass column.
func verdict(row paperRow, v float64) string {
	if row.pass(v) {
		return "pass"
	}
	return "fail"
}

// tolerance is a row's Tolerance column.
func tolerance(row paperRow) string {
	switch row.cmp {
	case gain:
		return fmt.Sprintf("gain ±%g%%", row.tol*100)
	case points:
		return fmt.Sprintf("±%g pts", row.tol)
	case above:
		return fmt.Sprintf("> %g", row.value)
	case below:
		return fmt.Sprintf("< %g", row.value)
	case exact:
		return fmt.Sprintf("exact to %g", row.tol)
	}
	return "holds"
}

// reproduced is a row's Reproduced column: four significant digits, or
// yes/no for a qualitative claim.
func reproduced(row paperRow, v float64) string {
	if row.cmp != holds {
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
	if v == 1 {
		return "yes"
	}
	return "no"
}

const fidelityHeader = `# Fidelity: the reproduction against the paper

Generated by ` + "`go test -run TestFidelity -update .`" + ` from the paper table
in [fidelity.go](fidelity.go); do not edit by hand. Every driver runs once at
` + "`DefaultOptions()`" + `: 16 Lean-OoO cores, 60,000 warmup and 60,000 measured
records per core, seed 1, exact simulation.

An *input* row characterizes the paper's system or workloads (Table I, the
storage and sizing arithmetic, Figures 1 and 3): the reproduction is meant to
be fitted to it. A *prediction* row is a result about the designs: it is
checked, never tuned.

The tolerances were fixed before any reproduced value was read:
- a speedup s is compared on its gain s − 1, within ±15 % of the paper's gain;
- a percentage must be within ±5 points;
- a claim stated as >x or <x uses that bound as stated;
- a storage, sizing or Table I value, and a tuned design parameter, must match
  exactly at the paper's printed precision;
- a qualitative claim holds or does not.

Rows that fail are listed as ` + "`fail`" + `, not hidden.

| Figure | Metric | Kind | Paper | Source | Reproduced | Tolerance | Pass |
|---|---|---|---|---|---|---|---|
`

// renderFidelity renders FIDELITY.md from one run of every driver.
func renderFidelity(r *fidelityRun) string {
	var b strings.Builder
	b.WriteString(fidelityHeader)
	passed := 0
	for _, row := range paperRows {
		v := measures[row.id](r)
		got := reproduced(row, v)
		if row.id == "fig9.worst" { // the workload tells more than yes or no
			got, _ = r.fig9.WorstTotal()
		}
		if row.pass(v) {
			passed++
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s | %s |\n",
			row.figure, row.metric, row.kind, row.text, row.source, got, tolerance(row), verdict(row, v))
	}
	fmt.Fprintf(&b, "\n%d of %d rows pass.\n", passed, len(paperRows))
	return b.String()
}

// TestFidelity regenerates FIDELITY.md at full scale and fails when the
// committed file differs. Regenerate with: go test -run TestFidelity
// -update .
func TestFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("-short: the full-scale run takes over a minute")
	}
	if race.Enabled {
		t.Skip("race detector: the full-scale run would take several minutes")
	}
	o := DefaultOptions()
	o.Engine = NewEngine(0, NewResultCache())
	got := renderFidelity(runFidelity(o))
	const path = "FIDELITY.md"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestFidelity -update .)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("%s is stale from line %d (regenerate with go test -run TestFidelity -update .):\n--- got ---\n%s\n--- want ---\n%s",
				path, i+1, strings.Join(gl[i:min(i+3, len(gl))], "\n"), strings.Join(wl[i:min(i+3, len(wl))], "\n"))
		}
	}
}

// TestPaperRowCheck runs each comparison at its boundary and just past
// it, and fails every kind on a NaN or infinite reproduction, which a
// bound written as !(v < x) would pass.
func TestPaperRowCheck(t *testing.T) {
	var (
		g   = paperRow{cmp: gain, value: 1.5, tol: 0.25} // gain 0.5 ± 0.125
		p   = paperRow{cmp: points, value: 50, tol: 5}
		gt  = paperRow{cmp: above, value: 90}
		lt  = paperRow{cmp: below, value: 150}
		ex  = paperRow{cmp: exact, value: 13, tol: 1}
		yes = paperRow{cmp: holds, value: 1}
	)
	past := func(v, toward float64) float64 { return math.Nextafter(v, toward) }
	for _, tc := range []struct {
		name string
		row  paperRow
		v    float64
		want string
	}{
		{"gain at upper bound", g, 1.625, "pass"},
		{"gain past upper bound", g, past(1.625, 2), "fail"},
		{"gain at lower bound", g, 1.375, "pass"},
		{"gain past lower bound", g, past(1.375, 1), "fail"},
		{"points at upper bound", p, 55, "pass"},
		{"points past upper bound", p, past(55, 100), "fail"},
		{"points at lower bound", p, 45, "pass"},
		{"points past lower bound", p, past(45, 0), "fail"},
		{"above at its bound", gt, 90, "fail"},
		{"above just past its bound", gt, past(90, 100), "pass"},
		{"below at its bound", lt, 150, "fail"},
		{"below just past its bound", lt, past(150, 0), "pass"},
		{"exact at lower half unit", ex, 12.5, "pass"},
		{"exact past lower half unit", ex, past(12.5, 0), "fail"},
		{"exact just under upper half unit", ex, past(13.5, 0), "pass"},
		{"exact at upper half unit", ex, 13.5, "fail"},
		{"holds", yes, 1, "pass"},
		{"does not hold", yes, 0, "fail"},
	} {
		if got := verdict(tc.row, tc.v); got != tc.want {
			t.Errorf("%s: %v renders %s, want %s", tc.name, tc.v, got, tc.want)
		}
	}
	for _, row := range []paperRow{g, p, gt, lt, ex, yes, {cmp: above, value: math.Inf(-1)}, {cmp: below, value: math.Inf(1)}} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if got := verdict(row, v); got != "fail" {
				t.Errorf("cmp %d, value %v: reproduced %v renders %s, want fail", row.cmp, row.value, v, got)
			}
		}
	}

	// The table itself: one measure per row, inputs exactly the fitted
	// figures, and a tolerance wherever the comparison needs one.
	inputs := map[string]bool{"Table I": true, "Sizing": true, "Storage": true, "Fig 1": true, "Fig 3": true}
	seen := map[string]bool{}
	for _, row := range paperRows {
		if seen[row.id] {
			t.Errorf("row %s appears twice", row.id)
		}
		seen[row.id] = true
		if measures[row.id] == nil {
			t.Errorf("row %s has no measure", row.id)
		}
		if (row.kind == input) != inputs[row.figure] || (row.kind != input && row.kind != prediction) {
			t.Errorf("row %s (%s) is kind %q", row.id, row.figure, row.kind)
		}
		if needsTol := row.cmp == gain || row.cmp == points || row.cmp == exact; needsTol != (row.tol > 0) {
			t.Errorf("row %s: tolerance %v for %s", row.id, row.tol, tolerance(row))
		}
		if row.text == "" || row.metric == "" || row.source == "" {
			t.Errorf("row %s is missing its text, metric or source", row.id)
		}
	}
	for id := range measures {
		if !seen[id] {
			t.Errorf("measure %s has no row", id)
		}
	}
}
