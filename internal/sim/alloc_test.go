package sim

import "testing"

// The zero-allocation contract: in steady state, System.step performs no
// heap allocations for the paper's evaluated design points. Warmup may
// grow reusable buffers (stream queues, request slices, reader stacks);
// after it, the per-record hot path — trace generation, branch
// prediction, cache probes, MSHR bookkeeping, the Prefetcher.OnAccess
// replay/record machinery, and prefetch issue — must run allocation-free.
// This is the regression gate behind the throughput work: a single
// alloc/record costs ~30% of simulator throughput in GC and malloc
// overhead.

// buildSteadySystem constructs a warmed 4-core system for the given
// prefetcher spec.
func buildSteadySystem(t *testing.T, spec PrefetcherSpec) *System {
	t.Helper()
	cfg := testConfig()
	cfg.Prefetcher = spec
	// The window holds the warmup below and the rounds measureStepAllocs
	// steps after it.
	b := enterAll(t, []RunSpec{{Config: cfg, Workload: testWorkload(), WarmupRecords: 30000, MeasureRecords: 10000}})
	// Warmup: populate caches, histories, stream buffers, and grow every
	// reusable buffer to its steady-state capacity.
	lockstep(t, b, cutBlocks([]segment{{rounds: 30000}}, 0), nil)
	return b.systems[0]
}

// measureStepAllocs returns allocations per Step over `rounds` lockstep
// rounds of all cores. testing.AllocsPerRun runs a GC first and counts
// mallocs, so slice growth that still happens in "steady" state shows up
// directly.
func measureStepAllocs(t *testing.T, sys *System, rounds int) float64 {
	t.Helper()
	steps := float64(rounds * sys.cfg.Cores)
	per := testing.AllocsPerRun(1, func() {
		for r := 0; r < rounds; r++ {
			for c := 0; c < sys.cfg.Cores; c++ {
				if _, err := sys.step(c); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	return per / steps
}

func testZeroAllocs(t *testing.T, spec PrefetcherSpec) {
	sys := buildSteadySystem(t, spec)
	// One extra settling pass inside the measurement harness: the first
	// AllocsPerRun invocation also runs the function once as warmup, so
	// residual growth (e.g. a stream queue that first overflows here)
	// does not count against the steady-state figure.
	if got := measureStepAllocs(t, sys, 2000); got != 0 {
		t.Fatalf("%s: %.6f allocs/record in steady-state Step, want 0", spec.Label, got)
	}
}

// testZeroAllocsOf runs testZeroAllocs over the design table's designs
// that pick selects.
func testZeroAllocsOf(t *testing.T, pick func(PrefetcherSpec) bool) {
	for _, spec := range designSpecs() {
		if pick(spec) {
			testZeroAllocs(t, spec)
		}
	}
}

// TestStepZeroAllocSteadyStateSHIFT covers the paper's contribution,
// shared histories: virtualized SHIFT (in the LLC) and ZeroLat-SHIFT.
func TestStepZeroAllocSteadyStateSHIFT(t *testing.T) {
	testZeroAllocsOf(t, func(p PrefetcherSpec) bool { return p.Kind == KindHistory && !p.PerCore })
}

// TestStepZeroAllocSteadyStatePIF covers the per-core state-of-the-art
// comparison points, PIF_2K and PIF_32K.
func TestStepZeroAllocSteadyStatePIF(t *testing.T) {
	testZeroAllocsOf(t, func(p PrefetcherSpec) bool { return p.PerCore && !p.History.RecordMisses })
}

// TestStepZeroAllocSteadyStateBaselines covers the remaining designs (no
// prefetch, next-line, TIFS) — the contract holds for all seven, not just
// the headline designs.
func TestStepZeroAllocSteadyStateBaselines(t *testing.T) {
	testZeroAllocsOf(t, func(p PrefetcherSpec) bool { return p.Kind != KindHistory || p.History.RecordMisses })
}

// TestStepZeroAllocSteadyStateBatch extends the contract to a RunBatch:
// a lockstep block — the lead publishing its log, then one follower per
// prefetcher implementation replaying it — allocates
// nothing, in detailed and in functional stepping; nor does one of a
// sampled batch, whose lead also compacts the stream into the region
// lists its PIF and SHIFT followers apply.
func TestStepZeroAllocSteadyStateBatch(t *testing.T) {
	for _, p := range []Sampling{{}, testSampling()} {
		specs := windowed(batchDesigns()[:7], 20000, 30000, p)
		b := enterAll(t, specs)
		if (b.log.builders != nil) != p.Enabled() {
			t.Fatalf("sampling %+v: region lists published %v", p, b.log.builders != nil)
		}
		const rounds = 2000
		for _, functional := range []bool{false, true} {
			lockstep(t, b, cutBlocks([]segment{{rounds: 30000, functional: functional}}, 0), nil)
			block := cutBlocks([]segment{{rounds: rounds, functional: functional}}, 0)
			per := testing.AllocsPerRun(1, func() { lockstep(t, b, block, nil) })
			if per != 0 {
				t.Errorf("sampling %+v, functional=%v: %.6f allocs/record in a steady-state batch block, want 0",
					p, functional, per/float64(rounds*len(specs)*specs[0].Config.Cores))
			}
		}
	}
}
