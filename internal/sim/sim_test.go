package sim

import (
	"math"
	"strings"
	"testing"

	"shift/internal/core"
	"shift/internal/noc"
	"shift/internal/workload"
)

// testWorkload is a small, fast workload for unit tests.
func testWorkload() workload.Params {
	return workload.Params{
		Name: "sim-test", Seed: 7,
		FootprintBytes:   192 * 1024,
		OSFootprintBytes: 16 * 1024,
		RequestTypes:     6, RequestZipf: 0.5,
		FuncBlocksMean: 5, CallDepth: 6, CallSiteDensity: 0.3,
		VaryProb: 0.05, SkipProb: 0.05,
		TrapRate: 0.003, SchedProb: 0.2,
		LoopWeight: 0.1,
	}
}

// testConfig shrinks the system to 4 cores on a 2x2 mesh for speed.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.Mesh = noc.Config{Width: 2, Height: 2, HopCycles: 3}
	cfg.BranchPredictorEntries = 1024
	return cfg
}

func testSpec(cfg Config) RunSpec {
	return RunSpec{
		Config:         cfg,
		Workload:       testWorkload(),
		WarmupRecords:  20000,
		MeasureRecords: 30000,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"no cores", func(c *Config) { c.Cores = 0 }},
		{"too many cores", func(c *Config) { c.Cores = 99 }},
		{"bad L1I", func(c *Config) { c.L1I.Assoc = 0 }},
		{"bad LLC", func(c *Config) { c.LLCBankBytes = 1000 }},
		{"LLC bank of 8 sets", func(c *Config) { c.LLCBankBytes = 8 << 10 }},
		{"no MSHRs", func(c *Config) { c.L1MSHRs = 0 }},
		{"negative latency", func(c *Config) { c.MemCycles = -1 }},
		{"bad elim", func(c *Config) { c.ElimProb = 1.5 }},
		{"bad data rate", func(c *Config) { c.DataMPKI = -1 }},
		{"bad pf kind", func(c *Config) { c.Prefetcher.Kind = PrefetcherKind(9) }},
		{"bad history", func(c *Config) { c.Prefetcher = PrefetcherSpec{Kind: KindHistory} }},
		{"bad per-core history", func(c *Config) { c.Prefetcher = PrefetcherSpec{Kind: KindHistory, PerCore: true} }},
		{"per-core groups", func(c *Config) {
			c.Prefetcher = designSpecs()[dPIF2K]
			c.Prefetcher.Groups = []core.Group{{Name: "all", Cores: []int{0}}}
		}},
		{"per-core adaptive generator", func(c *Config) {
			c.Prefetcher = designSpecs()[dPIF32K]
			c.Prefetcher.AdaptiveGenerator = true
		}},
	}
	for _, m := range mutations {
		c := DefaultConfig()
		m.mut(&c)
		if err := c.validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestSpecNames(t *testing.T) {
	if (PrefetcherSpec{Kind: KindNone}).Name() != "Baseline" {
		t.Error("baseline name")
	}
	if (PrefetcherSpec{Kind: KindNextLine}).Name() != "NextLine" {
		t.Error("nextline name")
	}
	for i, want := range []string{"Baseline", "NextLine", "PIF_2K", "PIF_32K", "ZeroLat-SHIFT", "SHIFT", "TIFS"} {
		if got := designSpecs()[i].Name(); got != want {
			t.Errorf("design %d named %q, want %q", i, got, want)
		}
	}
	if n := (PrefetcherSpec{Kind: KindHistory, History: core.PIFConfig(4096), PerCore: true}).Name(); n != "PIF_4096" {
		t.Errorf("rescaled PIF named %q", n)
	}
	if ModePrediction.String() != "prediction" || ModePrefetch.String() != "prefetch" {
		t.Error("mode names")
	}
	if n := (PrefetcherSpec{Kind: PrefetcherKind(9)}).Name(); n != "PrefetcherKind(9)" {
		t.Errorf("unknown kind named %q", n)
	}
}

func TestBaselineRun(t *testing.T) {
	res, err := Run(testSpec(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 4*30000 {
		t.Errorf("Records = %d, want 120000", res.Records)
	}
	if res.Instructions <= res.Records {
		t.Error("instructions should exceed records")
	}
	if res.Throughput <= 0 {
		t.Error("throughput should be positive")
	}
	if res.Fetch.Misses == 0 {
		t.Error("a 192KB footprint should miss in a 32KB L1-I")
	}
	if res.MPKI <= 0 {
		t.Error("MPKI should be positive")
	}
	if res.FetchStallFraction <= 0 || res.FetchStallFraction >= 1 {
		t.Errorf("FetchStallFraction = %v", res.FetchStallFraction)
	}
	if res.BranchAccuracy < 0.5 || res.BranchAccuracy > 1 {
		t.Errorf("BranchAccuracy = %v", res.BranchAccuracy)
	}
	if res.Traffic[noc.DemandInstr] == 0 || res.Traffic[noc.DemandData] == 0 {
		t.Error("demand traffic not accounted")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(testSpec(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testSpec(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.Fetch.Misses != b.Fetch.Misses {
		t.Error("identical specs produced different results")
	}
}

func TestElimProbSpeedsUp(t *testing.T) {
	base, err := Run(testSpec(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.ElimProb = 1.0
	perfect, err := Run(testSpec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if perfect.Throughput <= base.Throughput {
		t.Errorf("perfect I-cache throughput %v <= baseline %v", perfect.Throughput, base.Throughput)
	}
	if perfect.FetchStallFraction >= base.FetchStallFraction {
		t.Error("eliminating misses did not reduce stall fraction")
	}
}

func TestNextLineImproves(t *testing.T) {
	base, err := Run(testSpec(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Prefetcher = PrefetcherSpec{Kind: KindNextLine, NextLineDegree: 1}
	nl, err := Run(testSpec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if nl.Fetch.PBHits == 0 {
		t.Error("next-line produced no useful prefetches")
	}
	if nl.Throughput <= base.Throughput {
		t.Errorf("next-line throughput %v <= baseline %v", nl.Throughput, base.Throughput)
	}
	if nl.Traffic[noc.PrefetchFill] == 0 {
		t.Error("no prefetch traffic accounted")
	}
}

func TestPIFImprovesOverNextLine(t *testing.T) {
	cfg := testConfig()
	cfg.Prefetcher = PrefetcherSpec{Kind: KindNextLine}
	nl, err := Run(testSpec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	cfg = testConfig()
	cfg.Prefetcher = PrefetcherSpec{Kind: KindHistory, History: core.PIFConfig(4096), PerCore: true}
	pf, err := Run(testSpec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if pf.Throughput <= nl.Throughput {
		t.Errorf("PIF throughput %v <= next-line %v", pf.Throughput, nl.Throughput)
	}
	if pf.Fetch.Misses >= nl.Fetch.Misses {
		t.Errorf("PIF misses %d >= next-line %d", pf.Fetch.Misses, nl.Fetch.Misses)
	}
}

// The design table: every design point, in the root package's Design
// order, at the geometry internal/core gives it (the root cannot be
// imported here). The per-design tests and benchmarks walk it.
const (
	dBaseline = iota
	dNextLine
	dPIF2K
	dPIF32K
	dZeroLat
	dSHIFT
	dTIFS
)

func designSpecs() []PrefetcherSpec {
	zeroLat := core.DefaultConfig()
	zeroLat.Variant = core.Dedicated
	return []PrefetcherSpec{
		dBaseline: {Kind: KindNone},
		dNextLine: {Kind: KindNextLine, NextLineDegree: 1},
		dPIF2K:    {Kind: KindHistory, History: core.PIFConfig(core.PIF2K), PerCore: true, Label: "PIF_2K"},
		dPIF32K:   {Kind: KindHistory, History: core.PIFConfig(core.PIF32K), PerCore: true, Label: "PIF_32K"},
		dZeroLat:  {Kind: KindHistory, History: zeroLat},
		dSHIFT:    {Kind: KindHistory, History: core.DefaultConfig()},
		dTIFS:     {Kind: KindHistory, History: core.TIFSConfig(), PerCore: true},
	}
}

// smallDesignSpecs is designSpecs with the shared histories shrunk to
// 4096 records (smallSHIFT), so that a test window fills them.
func smallDesignSpecs() []PrefetcherSpec {
	specs := designSpecs()
	for i := range specs {
		if specs[i].Kind == KindHistory && !specs[i].PerCore {
			specs[i].History.HistEntries = 4096
		}
	}
	return specs
}

// testName is spec's name as a subtest name: lower case, no underscores.
func testName(spec PrefetcherSpec) string {
	return strings.ToLower(strings.ReplaceAll(spec.Name(), "_", ""))
}

func smallSHIFT(v core.Variant) core.Config {
	c := core.DefaultConfig()
	c.Variant = v
	c.HistEntries = 4096
	return c
}

func TestSHIFTDedicatedWorks(t *testing.T) {
	base, err := Run(testSpec(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Prefetcher = PrefetcherSpec{Kind: KindHistory, History: smallSHIFT(core.Dedicated)}
	sh, err := Run(testSpec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if sh.Throughput <= base.Throughput {
		t.Errorf("SHIFT throughput %v <= baseline %v", sh.Throughput, base.Throughput)
	}
	if sh.Pf.CoveredMisses == 0 {
		t.Error("SHIFT covered no misses")
	}
}

func TestSHIFTVirtualizedTrafficAndPinning(t *testing.T) {
	cfg := testConfig()
	cfg.Prefetcher = PrefetcherSpec{Kind: KindHistory, History: smallSHIFT(core.Virtualized)}
	// The whole run is measured.
	spec := RunSpec{Config: cfg, Workload: testWorkload(), MeasureRecords: 50000}
	b := enterAll(t, []RunSpec{spec})
	lockstep(t, b, b.blocks, nil)
	sys := b.systems[0]
	res := sys.result(spec.Sampling)
	if res.Traffic[noc.HistRead] == 0 {
		t.Error("no LogRead traffic")
	}
	if res.Traffic[noc.HistWrite] == 0 {
		t.Error("no LogWrite traffic")
	}
	if res.Traffic[noc.IndexUpdate] == 0 {
		t.Error("no index-update traffic")
	}
	if llcPinnedLines(sys) == 0 {
		t.Error("no pinned history lines in the LLC")
	}
	maxPinned := smallSHIFT(core.Virtualized).HistoryBlocks()
	if got := llcPinnedLines(sys); got > maxPinned {
		t.Errorf("pinned lines %d exceed history size %d", got, maxPinned)
	}
	if len(sys.shared) != 1 {
		t.Error("expected one shared history")
	}
	if sys.shared[0].Stats().RecordsWritten == 0 {
		t.Error("generator wrote no records")
	}
}

func TestSHIFTVirtualizedSlowerThanDedicated(t *testing.T) {
	cfgD := testConfig()
	cfgD.Prefetcher = PrefetcherSpec{Kind: KindHistory, History: smallSHIFT(core.Dedicated)}
	ded, err := Run(testSpec(cfgD))
	if err != nil {
		t.Fatal(err)
	}
	cfgV := testConfig()
	cfgV.Prefetcher = PrefetcherSpec{Kind: KindHistory, History: smallSHIFT(core.Virtualized)}
	vir, err := Run(testSpec(cfgV))
	if err != nil {
		t.Fatal(err)
	}
	// ZeroLat-SHIFT must be at least as fast as virtualized SHIFT
	// (Figure 8's ~1.5% gap).
	if vir.Throughput > ded.Throughput*1.01 {
		t.Errorf("virtualized %v implausibly faster than dedicated %v", vir.Throughput, ded.Throughput)
	}
}

func TestPredictionModeDoesNotPerturb(t *testing.T) {
	base, err := Run(testSpec(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Mode = ModePrediction
	cfg.Prefetcher = PrefetcherSpec{Kind: KindHistory, History: smallSHIFT(core.Dedicated)}
	pred, err := Run(testSpec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if pred.Fetch.Misses != base.Fetch.Misses {
		t.Errorf("prediction mode changed miss count: %d vs %d", pred.Fetch.Misses, base.Fetch.Misses)
	}
	if pred.Pf.CoveredMisses == 0 {
		t.Error("prediction mode tracked no covered misses")
	}
	if pred.MissCoverage() <= 0 || pred.MissCoverage() > 1 {
		t.Errorf("MissCoverage = %v", pred.MissCoverage())
	}
}

func TestConsolidationRun(t *testing.T) {
	cfg := testConfig()
	cfg.Prefetcher = PrefetcherSpec{Kind: KindHistory, History: smallSHIFT(core.Virtualized)}
	wlA := testWorkload()
	wlB := testWorkload()
	wlB.Name = "sim-test-B"
	wlB.Seed = 99
	spec := RunSpec{
		Config: cfg,
		Groups: []core.Group{
			{Name: "A", Cores: []int{0, 1}},
			{Name: "B", Cores: []int{2, 3}},
		},
		GroupWorkloads: []workload.Params{wlA, wlB},
		WarmupRecords:  20000,
		MeasureRecords: 20000,
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pf.CoveredMisses == 0 {
		t.Error("consolidated SHIFT covered nothing")
	}
}

func TestRunSpecValidation(t *testing.T) {
	ok := testSpec(testConfig())
	if err := ok.validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := ok
	bad.MeasureRecords = 0
	if err := bad.validate(); err == nil {
		t.Error("zero measure accepted")
	}
	bad = ok
	bad.WarmupRecords = -1
	if err := bad.validate(); err == nil {
		t.Error("negative warmup accepted")
	}
	bad = ok
	bad.Workload.Name = ""
	if err := bad.validate(); err == nil {
		t.Error("invalid workload accepted")
	}
	// A history numbers its records in 30 bits: a window of 2^30 records
	// a core is refused, however it is split, and fields whose sum
	// overflows are refused too.
	for _, w := range [][2]int64{{0, 1 << 30}, {1 << 29, 1 << 29}, {1<<30 - 1, 1}, {1 << 62, 1 << 62}, {1, math.MaxInt64}} {
		bad = ok
		bad.WarmupRecords, bad.MeasureRecords = w[0], w[1]
		if err := bad.validate(); err == nil {
			t.Errorf("window of %d + %d records accepted", w[0], w[1])
		}
	}
	bad = ok
	bad.WarmupRecords, bad.MeasureRecords = 1<<29, 1<<29-1
	if err := bad.validate(); err != nil {
		t.Errorf("window of 2^30 - 1 records refused: %v", err)
	}
	bad = ok
	bad.Groups = []core.Group{{Name: "A", Cores: []int{0}}}
	if err := bad.validate(); err == nil {
		t.Error("groups without workloads accepted")
	}
}

// TestSameWorkloadGroupsOverpredictNoMore: SHIFT with two groups running
// the same workload keeps two histories in one LLC, which holds one index
// pointer per block for both. A group must not replay its history from the
// other's pointer, so splitting the CMP into two same-workload groups may
// lose coverage to the contention for that pointer, but does not add
// overpredictions.
func TestSameWorkloadGroupsOverpredictNoMore(t *testing.T) {
	p, err := workload.ByName("OLTP Oracle")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Prefetcher = PrefetcherSpec{Kind: KindHistory, History: core.DefaultConfig()}
	one := RunSpec{Config: cfg, Workload: p, WarmupRecords: 20000, MeasureRecords: 30000}
	two := one
	two.Groups = []core.Group{{Name: "A", Cores: []int{0, 1}}, {Name: "B", Cores: []int{2, 3}}}
	two.GroupWorkloads = []workload.Params{p, p}
	over := func(spec RunSpec) float64 {
		r, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return float64(r.Fetch.Discards) / float64(r.Fetch.Misses+r.Fetch.PBHits)
	}
	o1, o2 := over(one), over(two)
	t.Logf("overpredictions per L1-I miss: one group %.3f, two groups %.3f", o1, o2)
	if o2 > o1 {
		t.Errorf("two same-workload groups overpredict %.3f per L1-I miss, one group %.3f", o2, o1)
	}
}

// llcPinnedLines returns the total pinned (history) lines across s's LLC
// banks.
func llcPinnedLines(s *System) int {
	n := 0
	for _, b := range s.llc {
		n += b.PinnedCount()
	}
	return n
}
