package sim

import (
	"testing"

	"shift/internal/core"
	"shift/internal/trace"
	"shift/internal/workload"
)

// switchReader yields from a until `after` records, then from b — the
// Section 6.1 scenario of a generator core whose control flow deviates
// for a long time (descheduled thread, different work).
type switchReader struct {
	a, b  trace.Reader
	after int64
	n     int64
}

func (s *switchReader) Next() (trace.Record, error) {
	s.n++
	if s.n <= s.after {
		return s.a.Next()
	}
	return s.b.Next()
}

// deviatingSource runs main on every core, except that the generator,
// core 0, switches to alien after 15K records.
type deviatingSource struct{ main, alien workload.Params }

func (d deviatingSource) NewCoreReader(c int) (trace.Reader, error) {
	wm, err := workload.Cached(d.main)
	if err != nil {
		return nil, err
	}
	if c != 0 {
		return wm.NewCoreReader(c), nil
	}
	wa, err := workload.Cached(d.alien)
	if err != nil {
		return nil, err
	}
	return &switchReader{a: wm.NewCoreReader(0), b: wa.NewCoreReader(0), after: 15000}, nil
}

// TestAdaptiveGeneratorRecovers models a generator core that starts
// healthy and then permanently deviates to unrelated code: the shared
// history it records becomes useless to the other cores. With the
// Section 6.1 adaptive monitor enabled, the generator role must rotate
// away and the healthy cores' coverage must recover; without it, coverage
// stays collapsed.
func TestAdaptiveGeneratorRecovers(t *testing.T) {
	main := testWorkload()
	alien := testWorkload()
	alien.Name = "alien"
	alien.Seed = 909 // different code layout entirely

	coverage := func(adaptive bool) (float64, int64) {
		cfg := testConfig()
		sh := smallSHIFT(core.Dedicated)
		sh.GeneratorCore = 0
		cfg.Prefetcher = PrefetcherSpec{
			Kind: KindHistory, History: sh,
			AdaptiveGenerator: adaptive, AdaptWindow: 4096,
		}
		// Healthy phase + deviation + time for detection and re-warm, then
		// the measured window.
		spec := RunSpec{Config: cfg, Source: deviatingSource{main, alien}, WarmupRecords: 40000, MeasureRecords: 30000}
		b := enterAll(t, []RunSpec{spec})
		lockstep(t, b, b.blocks, nil)
		sys := b.systems[0]
		res := sys.result(spec.Sampling)
		// Coverage among the healthy cores only (1..N-1): prefetch-buffer
		// hits over would-be misses.
		var covered, misses int64
		for i := 1; i < res.Cores; i++ {
			covered += res.PerCore[i].Fetch.PBHits
			misses += res.PerCore[i].Fetch.PBHits + res.PerCore[i].Fetch.Misses
		}
		return float64(covered) / float64(misses), sys.shared[0].Rotations()
	}

	stuckCov, stuckRot := coverage(false)
	adaptCov, adaptRot := coverage(true)

	if stuckRot != 0 {
		t.Errorf("non-adaptive run rotated %d times", stuckRot)
	}
	if adaptRot == 0 {
		t.Fatal("adaptive monitor never rotated away from the broken generator")
	}
	if adaptCov <= stuckCov+0.2 {
		t.Errorf("adaptive coverage %.2f did not clearly beat stuck coverage %.2f",
			adaptCov, stuckCov)
	}
}

// TestAdaptiveQuietWhenHealthy verifies the monitor does not thrash when
// the generator is fine: rotations on a homogeneous workload stay rare.
func TestAdaptiveQuietWhenHealthy(t *testing.T) {
	cfg := testConfig()
	cfg.Prefetcher = PrefetcherSpec{
		Kind: KindHistory, History: smallSHIFT(core.Dedicated),
		AdaptiveGenerator: true, AdaptWindow: 4096,
	}
	res, err := Run(RunSpec{
		Config: cfg, Workload: testWorkload(),
		WarmupRecords: 20000, MeasureRecords: 40000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pf.CoveredMisses == 0 {
		t.Error("no coverage with adaptive monitor enabled")
	}
}

// TestSetGeneratorIdempotent checks the handover API directly.
func TestSetGeneratorIdempotent(t *testing.T) {
	sh := core.MustNewSharedHistory(smallSHIFT(core.Dedicated), 0, nil)
	if sh.Generator() != 0 {
		t.Fatalf("initial generator = %d", sh.Generator())
	}
	sh.SetGenerator(0) // no-op
	if sh.Rotations() != 0 {
		t.Error("self-handover counted as rotation")
	}
	sh.SetGenerator(5)
	if sh.Generator() != 5 || sh.Rotations() != 1 {
		t.Errorf("generator=%d rotations=%d", sh.Generator(), sh.Rotations())
	}
}
