package shift

import (
	"errors"
	"strings"
	"testing"

	"shift/internal/validate"
)

// tinyOptions keeps root-package tests fast: one small workload, 8 cores,
// short windows. Shapes (orderings) still hold at this scale.
func tinyOptions() Options {
	return Options{
		Workloads:      []string{"Web Search"},
		Cores:          8,
		CoreType:       LeanOoO,
		WarmupRecords:  12000,
		MeasureRecords: 12000,
		Seed:           1,
	}
}

func tinyConfig(d Design) Config {
	cfg := DefaultRunConfig("Web Search", d)
	cfg.Cores = 8
	cfg.WarmupRecords = 12000
	cfg.MeasureRecords = 12000
	return cfg
}

func TestWorkloadsList(t *testing.T) {
	ws := Workloads()
	if len(ws) != 7 {
		t.Fatalf("got %d workloads, want 7", len(ws))
	}
	if ws[0] != "OLTP DB2" || ws[6] != "Web Search" {
		t.Errorf("unexpected workload list: %v", ws)
	}
}

func TestDesignAndCoreTypeNames(t *testing.T) {
	if DesignSHIFT.String() != "SHIFT" || DesignZeroLatSHIFT.String() != "ZeroLat-SHIFT" ||
		DesignPIF32K.String() != "PIF_32K" || DesignPIF2K.String() != "PIF_2K" ||
		DesignNextLine.String() != "NextLine" || DesignBaseline.String() != "Baseline" {
		t.Error("design names do not match the paper's figures")
	}
	if got := Design(99).String(); got != "Design(99)" {
		t.Errorf("unknown design formats as %q", got)
	}
	if _, err := (Config{Workload: "Web Search", Design: Design(99)}).spec(); err == nil ||
		err.Error() != "shift: unknown design 99" {
		t.Errorf("unknown design spec error: %v", err)
	}
	// Every row of the design table: its name parses back (any case), the
	// simulator labels its runs with it (RunResult.Design), and exactly
	// the designs with dedicated storage carry an area.
	withArea := map[Design]bool{DesignPIF2K: true, DesignPIF32K: true, DesignZeroLatSHIFT: true, DesignSHIFT: true}
	for i := range designs {
		d := Design(i)
		for _, name := range []string{d.String(), strings.ToLower(d.String()), strings.ToUpper(d.String())} {
			if got, err := ParseDesign(name); err != nil || got != d {
				t.Errorf("ParseDesign(%q) = %v, %v; want %v", name, got, err, d)
			}
		}
		if got := designs[i].spec(0, false).Name(); got != d.String() {
			t.Errorf("%v: simulator labels it %q", d, got)
		}
		if got := d.areaPerCore(16); (got != 0) != withArea[d] {
			t.Errorf("%v: area %v mm^2, want non-zero %v", d, got, withArea[d])
		}
	}
	if LeanOoO.String() != "Lean-OoO" || FatOoO.String() != "Fat-OoO" || LeanIO.String() != "Lean-IO" {
		t.Error("core type names")
	}
	if len(FigureDesigns()) != 5 || len(AllCoreTypes()) != 3 {
		t.Error("comparison sets wrong size")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Workload: "nope", Design: DesignBaseline}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Run(Config{Workload: "Web Search", Design: Design(42)}); err == nil {
		t.Error("unknown design accepted")
	}
}

// TestRunRefusesOutOfRangeConfig: a negative core count or history
// capacity is refused, not read as "the default", and so is a history
// above 2^20 records, each with a FieldError naming the field.
func TestRunRefusesOutOfRangeConfig(t *testing.T) {
	for _, tc := range []struct {
		mutate func(*Config)
		field  string
	}{
		{func(c *Config) { c.Cores = -3 }, "cores"},
		{func(c *Config) { c.HistEntries = -8 }, "hist_entries"},
		{func(c *Config) { c.HistEntries = 1 << 21 }, "hist_entries"},
	} {
		cfg := tinyConfig(DesignPIF2K)
		tc.mutate(&cfg)
		var fe *validate.FieldError
		if r, err := Run(cfg); !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("Run(Cores %d, HistEntries %d) = %s on %d cores, %v; want a %s field error",
				cfg.Cores, cfg.HistEntries, r.Design, r.Cores, err, tc.field)
		}
	}
}

func TestOptionsNormalize(t *testing.T) {
	o, err := Options{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if o.Cores != 16 || len(o.Workloads) != 7 || o.MeasureRecords != 60000 {
		t.Errorf("defaults not filled: %+v", o)
	}
	if _, err := (Options{Workloads: []string{"zzz"}}).normalize(); err == nil {
		t.Error("bad workload accepted")
	}
	if _, err := (Options{Cores: 99}).normalize(); err == nil {
		t.Error("too many cores accepted")
	}
	if QuickOptions().MeasureRecords >= DefaultOptions().MeasureRecords {
		t.Error("QuickOptions should be smaller")
	}
}

func TestRunSHIFTBeatsBaseline(t *testing.T) {
	base, err := Run(tinyConfig(DesignBaseline))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := Run(tinyConfig(DesignSHIFT))
	if err != nil {
		t.Fatal(err)
	}
	if sh.Throughput <= base.Throughput {
		t.Errorf("SHIFT %.3f <= baseline %.3f", sh.Throughput, base.Throughput)
	}
	if sh.CoveredByPrefetch == 0 || sh.Traffic.HistRead == 0 {
		t.Error("SHIFT produced no coverage or history traffic")
	}
	if base.MPKI <= 0 || base.FetchStallFraction <= 0 {
		t.Errorf("baseline stats: MPKI=%v stall=%v", base.MPKI, base.FetchStallFraction)
	}
}

func TestFigure1(t *testing.T) {
	fig, err := RunFigure1(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	row := fig.Speedup["Web Search"]
	if len(row) != 11 || row[0] != 1.0 {
		t.Fatalf("row = %v", row)
	}
	// Monotone-ish increase; final point must clearly beat the first.
	if row[10] <= 1.05 {
		t.Errorf("perfect-I speedup %v too small", row[10])
	}
	if fig.PerfectGeoMean() != fig.GeoMean[10] {
		t.Error("PerfectGeoMean mismatch")
	}
	if !strings.Contains(fig.String(), "Figure 1") {
		t.Error("String output")
	}
}

func TestFigure3(t *testing.T) {
	fig, err := RunFigure3(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fig.Mean() != fig.Commonality["Web Search"] {
		t.Error("Mean over one workload should equal it")
	}
	if !strings.Contains(fig.String(), "Figure 3") {
		t.Error("String output")
	}
}

func TestFigure6(t *testing.T) {
	fig, err := RunFigure6(tinyOptions(), []int{2048, 32768})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.SHIFT) != 2 || len(fig.PIF) != 2 {
		t.Fatalf("curve lengths: %d/%d", len(fig.SHIFT), len(fig.PIF))
	}
	// Coverage grows with history size. Whether SHIFT dominates PIF is a
	// claim of the paper's, checked at every default size in FIDELITY.md.
	if fig.SHIFT[1] <= fig.SHIFT[0] {
		t.Errorf("SHIFT coverage not increasing: %v", fig.SHIFT)
	}
	if !strings.Contains(fig.String(), "Figure 6") {
		t.Error("String output")
	}
	// A size above the shared bound is refused before anything is built.
	var fe *validate.FieldError
	if _, err := RunFigure6(tinyOptions(), []int{2048, 1 << 40}); !errors.As(err, &fe) || fe.Field != "hist_entries" {
		t.Errorf("a 2^40-record history: error %v, want a hist_entries field error", err)
	}
}

func TestFigure7(t *testing.T) {
	fig, err := RunFigure7(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 3 {
		t.Fatalf("got %d rows", len(fig.Rows))
	}
	if fig.MeanCovered(DesignPIF32K) <= fig.MeanCovered(DesignPIF2K) {
		t.Errorf("PIF_32K covered %.1f <= PIF_2K %.1f",
			fig.MeanCovered(DesignPIF32K), fig.MeanCovered(DesignPIF2K))
	}
	if fig.MeanCovered(DesignSHIFT) <= fig.MeanCovered(DesignPIF2K) {
		t.Errorf("SHIFT covered %.1f <= PIF_2K %.1f",
			fig.MeanCovered(DesignSHIFT), fig.MeanCovered(DesignPIF2K))
	}
	for _, r := range fig.Rows {
		if r.Covered < 0 || r.Uncovered < 0 || r.Overpredicted < 0 {
			t.Errorf("negative bar: %+v", r)
		}
	}
	if !strings.Contains(fig.String(), "Figure 7") {
		t.Error("String output")
	}
}

func TestFigure8(t *testing.T) {
	fig, err := RunFigure8(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's ordering and SHIFT's retained benefit are rows of
	// FIDELITY.md.
	if len(fig.Geo) != 5 {
		t.Errorf("geo-means for %d designs, want 5", len(fig.Geo))
	}
	if fig.MaxSHIFTSpeedup() < 1 {
		t.Error("MaxSHIFTSpeedup < 1")
	}
	if !strings.Contains(fig.String(), "Figure 8") {
		t.Error("String output")
	}
}

func TestFigure9(t *testing.T) {
	fig, err := RunFigure9(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 1 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	r := fig.Rows[0]
	if r.LogRead <= 0 || r.LogWrite <= 0 || r.IndexUpdate <= 0 {
		t.Errorf("missing traffic components: %+v", r)
	}
	if r.Total() <= 0 || r.Total() > 60 {
		t.Errorf("total traffic increase %.1f%% implausible", r.Total())
	}
	name, worst := fig.WorstTotal()
	if name != "Web Search" || worst != r.Total() {
		t.Error("WorstTotal wrong")
	}
	if !strings.Contains(fig.String(), "Figure 9") {
		t.Error("String output")
	}
}

func TestFigure10(t *testing.T) {
	o := tinyOptions()
	o.Workloads = nil // consolidation uses its own fixed set
	fig, err := RunFigure10(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Workloads) != 4 {
		t.Fatalf("workloads = %v", fig.Workloads)
	}
	if fig.Geo["SHIFT"] <= 1 {
		t.Errorf("consolidated SHIFT geo speedup %v <= 1", fig.Geo["SHIFT"])
	}
	if !strings.Contains(fig.String(), "Figure 10") {
		t.Error("String output")
	}
	if o.Cores != 8 || !strings.Contains(fig.String(), "Workload (2 cores each)") {
		t.Errorf("%d-core Figure 10 header does not say 2 cores each:\n%s", o.Cores, fig)
	}
}

// TestFigure10RejectsTooFewCores: Figure 10 splits the cores evenly over
// its four workloads, so too few cores and an uneven count (6 would leave
// two cores in no group) are both rejected up front, naming the multiple.
func TestFigure10RejectsTooFewCores(t *testing.T) {
	for _, cores := range []int{2, 6} {
		o := tinyOptions()
		o.Cores = cores
		if _, err := RunFigure10(o); err == nil || !strings.Contains(err.Error(), "multiple of 4") {
			t.Errorf("%d cores for 4 workloads: error %v, want one naming the multiple of 4", cores, err)
		}
	}
}

func TestPerfDensity(t *testing.T) {
	pd, err := RunPerfDensity(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pd.Points) != 9 {
		t.Fatalf("points = %d, want 9", len(pd.Points))
	}
	// The PD gains' ordering and PIF_32K's loss on Lean-IO are rows of
	// FIDELITY.md.
	if pd.Point(LeanIO, DesignPIF32K) == nil {
		t.Error("no PIF_32K point on Lean-IO")
	}
	if pd.Point(LeanOoO, Design(42)) != nil {
		t.Error("unknown point should be nil")
	}
	if !strings.Contains(pd.Figure2(), "Figure 2") || !strings.Contains(pd.String(), "5.6") {
		t.Error("String outputs")
	}
}

func TestPowerStudy(t *testing.T) {
	p, err := RunPowerStudy(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rows) != 1 || p.Rows[0].ExtraMW <= 0 {
		t.Fatalf("rows = %+v", p.Rows)
	}
	if p.MaxMW != p.Rows[0].ExtraMW {
		t.Errorf("MaxMW %v, want the only row's %v", p.MaxMW, p.Rows[0].ExtraMW)
	}
	if !strings.Contains(p.String(), "5.7") {
		t.Error("String output")
	}
}

func TestStorageReport(t *testing.T) {
	// The values are rows of FIDELITY.md; the Paper column renders the
	// table's text of every storage row.
	s := RunStorageReport().String()
	for _, row := range paperRows {
		if strings.HasPrefix(row.id, "storage.") && !strings.Contains(s, row.text) {
			t.Errorf("storage report lacks the paper's %q:\n%s", row.text, s)
		}
	}
}

func TestSensitivity(t *testing.T) {
	s, err := RunSensitivity(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 14 {
		t.Fatalf("points = %d, want 14", len(s.Points))
	}
	for _, p := range s.Points {
		if p.Speedup <= 0.8 || p.Speedup > 3 {
			t.Errorf("%s=%d speedup %v implausible", p.Parameter, p.Value, p.Speedup)
		}
	}
	if v, _ := s.Best("lookahead"); v == 0 {
		t.Error("no best lookahead found")
	}
	if !strings.Contains(s.String(), "sensitivity") {
		t.Error("String output")
	}
}

func TestTableI(t *testing.T) {
	s := TableI()
	for _, want := range []string{"Lean-OoO", "32KB", "OLTP Oracle", "45ns", "gShare"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestGeneratorStudy(t *testing.T) {
	g, err := RunGeneratorStudy(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Points) < 3 {
		t.Fatalf("points = %d", len(g.Points))
	}
	for _, p := range g.Points {
		if p.Speedup <= 1 {
			t.Errorf("generator %d: speedup %v <= 1", p.GeneratorCore, p.Speedup)
		}
	}
	if !strings.Contains(g.String(), "6.1") {
		t.Error("String output")
	}
}

func TestTIFSDesign(t *testing.T) {
	base, err := Run(tinyConfig(DesignBaseline))
	if err != nil {
		t.Fatal(err)
	}
	tf, err := Run(tinyConfig(DesignTIFS))
	if err != nil {
		t.Fatal(err)
	}
	p32, err := Run(tinyConfig(DesignPIF32K))
	if err != nil {
		t.Fatal(err)
	}
	if DesignTIFS.String() != "TIFS" {
		t.Error("TIFS name")
	}
	if tf.Throughput <= base.Throughput {
		t.Errorf("TIFS %.3f <= baseline %.3f", tf.Throughput, base.Throughput)
	}
	// The access-vs-miss-stream result of Section 2.2: recording full
	// access streams (PIF) beats recording miss streams (TIFS) at equal
	// history capacity, because miss streams depend on cache content.
	if tf.Throughput >= p32.Throughput {
		t.Errorf("TIFS %.3f >= PIF_32K %.3f; access streams should win",
			tf.Throughput, p32.Throughput)
	}
}
