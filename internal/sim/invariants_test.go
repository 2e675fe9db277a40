package sim

import (
	"testing"

	"shift/internal/core"
	"shift/internal/cpu"
	"shift/internal/noc"
)

// runFor executes a spec and returns results (integration helper).
func runFor(t *testing.T, mut func(*Config)) Result {
	t.Helper()
	cfg := testConfig()
	if mut != nil {
		mut(&cfg)
	}
	res, err := Run(testSpec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAccountingInvariants checks cross-module conservation laws on a
// full SHIFT run: every covered miss was once a prefetch fill, every
// demand miss produced demand traffic, cycle counts decompose.
func TestAccountingInvariants(t *testing.T) {
	res := runFor(t, func(c *Config) {
		c.Prefetcher = PrefetcherSpec{Kind: KindHistory, History: smallSHIFT(core.Virtualized)}
	})
	f := res.Fetch
	if f.Accesses != res.Records {
		t.Errorf("accesses %d != records %d (one block visit each)", f.Accesses, res.Records)
	}
	if f.Misses+f.PBHits > f.Accesses {
		t.Errorf("misses %d + covered %d exceed accesses %d", f.Misses, f.PBHits, f.Accesses)
	}
	// Every PB hit and every discard consumed a prefetch fill; fills may
	// also still be resident, so fills >= hits + discards - PB capacity.
	fills := res.Traffic[noc.PrefetchFill]
	if fills < f.PBHits {
		t.Errorf("prefetch fills %d < PB hits %d", fills, f.PBHits)
	}
	if f.PBHits+f.Discards > fills+128*int64(res.Cores) {
		t.Errorf("PB outcomes %d exceed fills %d + residency", f.PBHits+f.Discards, fills)
	}
	// Demand instruction traffic equals effective misses (each miss does
	// exactly one LLC transaction).
	if res.Traffic[noc.DemandInstr] != f.Misses {
		t.Errorf("demand traffic %d != misses %d", res.Traffic[noc.DemandInstr], f.Misses)
	}
	// Per-core cycles decompose into backend + fetch stall + branch.
	for i, cr := range res.PerCore {
		if cr.FetchStall+cr.BranchStall > cr.Cycles {
			t.Errorf("core %d: stalls exceed cycles", i)
		}
		if cr.Instructions <= 0 || cr.Cycles <= 0 {
			t.Errorf("core %d: empty window", i)
		}
	}
}

// TestHistoryTrafficProportions checks the virtualized-SHIFT bookkeeping:
// one index update per record, one history write per 12 records.
func TestHistoryTrafficProportions(t *testing.T) {
	cfg := testConfig()
	cfg.Prefetcher = PrefetcherSpec{Kind: KindHistory, History: smallSHIFT(core.Virtualized)}
	spec := testSpec(cfg)
	spec.WarmupRecords = 0 // count from a cold start so totals align
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	records := res.Pf.RecordsWritten
	if records == 0 {
		t.Fatal("no records written")
	}
	if got := res.Traffic[noc.IndexUpdate]; got != records {
		t.Errorf("index updates %d != records %d", got, records)
	}
	wantWrites := records / 12
	if got := res.Traffic[noc.HistWrite]; got < wantWrites-1 || got > wantWrites+1 {
		t.Errorf("history writes %d, want ~%d (12 records per block)", got, wantWrites)
	}
}

// TestGeneratorCoreChoiceInsensitive reproduces Section 6.1 at test
// scale: picking a different generator core must not change SHIFT's
// benefit by more than a few percent.
func TestGeneratorCoreChoiceInsensitive(t *testing.T) {
	speedup := func(gen int) float64 {
		base := runFor(t, nil)
		res := runFor(t, func(c *Config) {
			sh := smallSHIFT(core.Dedicated)
			sh.GeneratorCore = gen
			c.Prefetcher = PrefetcherSpec{Kind: KindHistory, History: sh}
		})
		return res.Throughput / base.Throughput
	}
	s0, s3 := speedup(0), speedup(3)
	ratio := s0 / s3
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("generator choice changed speedup by >5%%: %.3f vs %.3f", s0, s3)
	}
}

// TestWarmupExclusion checks that beginInterval actually excludes
// warmup activity: a run with warmup must report fewer records than one
// measuring everything.
func TestWarmupExclusion(t *testing.T) {
	with, err := Run(testSpec(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(testConfig())
	spec.WarmupRecords = 0
	spec.MeasureRecords = 50000
	without, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if with.Records != 4*30000 || without.Records != 4*50000 {
		t.Errorf("window accounting wrong: %d, %d", with.Records, without.Records)
	}
	// Warmed measurement should see a lower miss ratio than cold-start.
	missRatio := func(f FetchStats) float64 { return float64(f.Misses) / float64(f.Accesses) }
	if missRatio(with.Fetch) >= missRatio(without.Fetch) {
		t.Errorf("warmed miss ratio %.3f >= cold %.3f",
			missRatio(with.Fetch), missRatio(without.Fetch))
	}
}

// TestElimProbPartial checks Figure 1's methodology at 50%: roughly half
// the misses' latency disappears, bounded well away from 0 and 100%.
func TestElimProbPartial(t *testing.T) {
	base := runFor(t, nil)
	half := runFor(t, func(c *Config) { c.ElimProb = 0.5 })
	full := runFor(t, func(c *Config) { c.ElimProb = 1.0 })
	if !(base.Throughput < half.Throughput && half.Throughput < full.Throughput) {
		t.Errorf("elimination not monotone: %.3f %.3f %.3f",
			base.Throughput, half.Throughput, full.Throughput)
	}
}

// TestLeanIOStallsMoreThanFatOoO checks the exposure model: the in-order
// core loses a larger cycle fraction to the same misses.
func TestLeanIOStallsMoreThanFatOoO(t *testing.T) {
	io := runFor(t, func(c *Config) { c.CoreType = cpu.LeanIO })
	fat := runFor(t, func(c *Config) { c.CoreType = cpu.FatOoO })
	if io.FetchStallFraction <= fat.FetchStallFraction {
		t.Errorf("Lean-IO stall %.3f <= Fat-OoO %.3f",
			io.FetchStallFraction, fat.FetchStallFraction)
	}
}
