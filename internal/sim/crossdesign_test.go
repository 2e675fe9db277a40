package sim

import (
	"testing"

	"shift/internal/noc"
	"shift/internal/workload"
)

// catalogConfig shrinks the CMP to 4 cores on a 2x2 mesh so the whole
// catalog sweep stays test-sized.
func catalogConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.Mesh = noc.Config{Width: 2, Height: 2, HopCycles: 3}
	return cfg
}

// runCatalog executes one design point on a catalog workload.
func runCatalog(t *testing.T, wp workload.Params, mut func(*Config)) Result {
	t.Helper()
	cfg := catalogConfig()
	if mut != nil {
		mut(&cfg)
	}
	res, err := Run(RunSpec{
		Config:         cfg,
		Workload:       wp,
		WarmupRecords:  10000,
		MeasureRecords: 15000,
	})
	if err != nil {
		t.Fatalf("%s: %v", wp.Name, err)
	}
	return res
}

// checkCounters asserts the self-consistency every run must satisfy,
// whatever the design: non-negative counters, accesses == records,
// covered + missed bounded by accesses, and demand traffic equal to
// effective misses.
func checkCounters(t *testing.T, label string, res Result) {
	t.Helper()
	f := res.Fetch
	for name, v := range map[string]int64{
		"accesses": f.Accesses, "misses": f.Misses, "pb-hits": f.PBHits,
		"late-pb-hits": f.LatePBHits, "discards": f.Discards,
		"records": res.Records, "instructions": res.Instructions,
	} {
		if v < 0 {
			t.Errorf("%s: %s = %d < 0", label, name, v)
		}
	}
	if f.Accesses != res.Records {
		t.Errorf("%s: accesses %d != records %d", label, f.Accesses, res.Records)
	}
	if f.Misses+f.PBHits > f.Accesses {
		t.Errorf("%s: misses %d + covered %d > accesses %d", label, f.Misses, f.PBHits, f.Accesses)
	}
	if f.LatePBHits > f.PBHits {
		t.Errorf("%s: late hits %d > hits %d", label, f.LatePBHits, f.PBHits)
	}
	if got := res.Traffic[noc.DemandInstr]; got != f.Misses {
		t.Errorf("%s: demand instr traffic %d != misses %d", label, got, f.Misses)
	}
	for cls, v := range res.Traffic {
		if v < 0 {
			t.Errorf("%s: traffic[%d] = %d < 0", label, cls, v)
		}
	}
	for i, cr := range res.PerCore {
		if cr.Cycles <= 0 || cr.Instructions <= 0 {
			t.Errorf("%s: core %d empty window", label, i)
		}
		if cr.FetchStall > cr.Cycles {
			t.Errorf("%s: core %d fetch stalls exceed cycles", label, i)
		}
	}
}

// TestCrossDesignInvariants sweeps every workload in the catalog across
// the design table (smallDesignSpecs), checks every run's counters, and
// checks the orderings the paper's evaluation rests on: dedicated
// zero-latency history storage never covers fewer baseline misses than
// the virtualized (in-LLC) history, and a 32K-record PIF never covers
// fewer than the 2K-record equal-cost PIF. Coverage is measured as the
// fraction of baseline misses eliminated, the Figure 7 metric.
func TestCrossDesignInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog sweep is not short")
	}
	for _, wp := range workload.Catalog() {
		wp := wp
		t.Run(wp.Name, func(t *testing.T) {
			t.Parallel()
			var res []Result
			for _, d := range smallDesignSpecs() {
				r := runCatalog(t, wp, func(c *Config) { c.Prefetcher = d })
				checkCounters(t, wp.Name+"/"+d.Name(), r)
				res = append(res, r)
			}
			base := res[dBaseline]
			if base.Fetch.Misses == 0 {
				t.Fatalf("%s: baseline saw no misses", wp.Name)
			}
			coverage := func(d int) float64 {
				return 1 - float64(res[d].Fetch.Misses)/float64(base.Fetch.Misses)
			}
			if cz, cv := coverage(dZeroLat), coverage(dSHIFT); cz < cv {
				t.Errorf("ZeroLat coverage %.3f < virtualized %.3f", cz, cv)
			}
			if c32, c2 := coverage(dPIF32K), coverage(dPIF2K); c32 < c2 {
				t.Errorf("PIF_32K coverage %.3f < PIF_2K %.3f", c32, c2)
			}
		})
	}
}
