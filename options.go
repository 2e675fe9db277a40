package shift

import (
	"fmt"

	"shift/internal/core"
	"shift/internal/sim"
)

// Options parameterizes the per-figure experiment drivers.
type Options struct {
	// Workloads selects a subset of Workloads() (nil = all seven).
	Workloads []string
	// Cores is the CMP size (default 16).
	Cores int
	// CoreType is the core microarchitecture (default Lean-OoO, as in
	// the paper's main results).
	CoreType CoreType
	// WarmupRecords/MeasureRecords are per-core window lengths
	// (defaults 60000/60000; benchmarks use smaller values).
	WarmupRecords, MeasureRecords int64
	// Seed drives simulator randomness.
	Seed int64
	// Sampling optionally runs every cell of the experiment with
	// interval sampling and functional warming instead of exact
	// simulation (see Sampling): detailed intervals alternate with
	// cheap fast-forwarding, and each RunResult carries standard-error/
	// confidence-interval fields for its headline metrics. The zero
	// value — the default — is exact simulation, whose output is byte-
	// identical to previous releases; sampled output is an approximation
	// with quantified error and is keyed separately in every result
	// store.
	Sampling Sampling
	// Engine runs every cell of the experiment; nil means a fresh
	// NewEngine(0, nil) — GOMAXPROCS workers, no result store. Its
	// worker bound never changes results (cells are merged by key, never
	// by completion order); its store lets repeated sweeps — and
	// experiments sharing cells, such as the per-workload baselines —
	// skip already-computed simulations. Sharing one engine across
	// drivers shares its store, its bound and its in-flight
	// deduplication (how the shiftd service serves many clients).
	Engine *Engine
}

// DefaultOptions returns the reference experiment scale (a full figure
// regenerates in roughly one to three minutes): DefaultRunConfig's.
func DefaultOptions() Options {
	c := DefaultRunConfig("", DesignBaseline)
	return Options{
		Cores:          c.Cores,
		CoreType:       c.CoreType,
		WarmupRecords:  c.WarmupRecords,
		MeasureRecords: c.MeasureRecords,
		Seed:           c.Seed,
	}
}

// QuickOptions returns a reduced scale for smoke tests and benchmarks:
// 25k+25k records per core against the default's 60k+60k (shapes hold,
// absolute numbers are noisier).
func QuickOptions() Options {
	o := DefaultOptions()
	o.WarmupRecords = 25000
	o.MeasureRecords = 25000
	return o
}

// normalize fills defaults and checks every workload's cell with
// Config.Validate, so a refusal is the one a cell of the options would
// get: a *FieldError (wrapped), which lets a front end name the option at
// fault. shiftd answers 400 for one, since every driver normalizes before
// it runs a cell.
func (o Options) normalize() (Options, error) {
	if len(o.Workloads) == 0 {
		o.Workloads = Workloads()
	}
	for _, w := range o.Workloads {
		if err := o.config(w, DesignBaseline).Validate(); err != nil {
			return o, fmt.Errorf("shift: %w", err)
		}
	}
	r := o.config("", DesignBaseline).Resolved()
	o.Cores, o.WarmupRecords, o.MeasureRecords = r.Cores, r.WarmupRecords, r.MeasureRecords
	return o, nil
}

// config builds a run Config from the options.
func (o Options) config(workloadName string, d Design) Config {
	return Config{
		Workload:       workloadName,
		Design:         d,
		CoreType:       o.CoreType,
		Cores:          o.Cores,
		WarmupRecords:  o.WarmupRecords,
		MeasureRecords: o.MeasureRecords,
		Seed:           o.Seed,
		Sampling:       o.Sampling,
	}
}

// shiftVariants runs SHIFT on workloadName once per mutation of its
// configuration, all on the options' engine, and returns each variant's
// speedup and miss coverage over base.
func (o Options) shiftVariants(workloadName string, base RunResult, muts []func(*core.Config)) (speedup, covered []float64, err error) {
	specs := make([]sim.RunSpec, len(muts))
	for i, mut := range muts {
		rs, err := o.config(workloadName, DesignSHIFT).spec()
		if err != nil {
			return nil, nil, err
		}
		mut(&rs.Config.Prefetcher.History)
		specs[i] = rs
	}
	results, err := o.engine().runSpecs(specs)
	if err != nil {
		return nil, nil, err
	}
	speedup, covered = make([]float64, len(results)), make([]float64, len(results))
	for i, res := range results {
		speedup[i] = res.Throughput / base.Throughput
		covered[i] = 1 - float64(res.Fetch.Misses)/float64(base.Misses)
	}
	return speedup, covered, nil
}

// runBaseline runs the no-prefetch system for normalization (through
// the engine, so a shared store reuses baselines across experiments).
func (o Options) runBaseline(workloadName string) (RunResult, error) {
	return o.run(o.config(workloadName, DesignBaseline))
}
