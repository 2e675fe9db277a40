package shift

import (
	"fmt"
	"strings"

	"shift/internal/core"
	"shift/internal/sim"
	"shift/internal/validate"
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
// regenerates in roughly one to three minutes).
func DefaultOptions() Options {
	return Options{
		Cores:          16,
		CoreType:       LeanOoO,
		WarmupRecords:  60000,
		MeasureRecords: 60000,
		Seed:           1,
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

// normalize validates and fills defaults. Every refusal is a
// *validate.FieldError (wrapped), so a front end can name the option at
// fault: shiftd answers 400 for one, since every driver normalizes
// before it runs a cell.
func (o Options) normalize() (Options, error) {
	if o.Cores == 0 {
		o.Cores = 16
	}
	if o.WarmupRecords == 0 {
		o.WarmupRecords = 60000
	}
	if o.MeasureRecords == 0 {
		o.MeasureRecords = 60000
	}
	for _, w := range o.Workloads {
		if !KnownWorkload(w) {
			return o, fmt.Errorf("shift: %w", validate.Fieldf("workloads",
				"unknown workload %q (valid: %s)", w, strings.Join(Workloads(), ", ")))
		}
		if n := WorkloadCores(w); n != 0 && n != o.Cores {
			return o, fmt.Errorf("shift: %w", validate.Fieldf("cores",
				"workload %q is a %d-core mix, configured for %d cores", w, n, o.Cores))
		}
	}
	if len(o.Workloads) == 0 {
		o.Workloads = Workloads()
	}
	cell := validate.Cell{
		Cores:            o.Cores,
		WarmupRecords:    o.WarmupRecords,
		MeasureRecords:   o.MeasureRecords,
		SamplePeriod:     o.Sampling.Period,
		SampleInterval:   o.Sampling.IntervalRecords,
		SampleWarmup:     o.Sampling.WarmupFraction,
		SampleConfidence: o.Sampling.Confidence,
	}
	if err := cell.Check(); err != nil {
		return o, fmt.Errorf("shift: %w", err)
	}
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

// runSpec is the sim.RunSpec of design d under these options, with no
// workload: the skeleton of the cells a public Config cannot express.
// The caller sets the workload and whatever its study varies.
func (o Options) runSpec(d Design) (sim.RunSpec, error) {
	return o.config("", d).skeleton()
}

// shiftVariants runs SHIFT on workloadName once per mutation of its
// configuration, all on the options' engine, and returns each variant's
// speedup and miss coverage over base.
func (o Options) shiftVariants(workloadName string, base RunResult, muts []func(*core.Config)) (speedup, covered []float64, err error) {
	specs := make([]sim.RunSpec, len(muts))
	for i, mut := range muts {
		rs, err := o.runSpec(DesignSHIFT)
		if err != nil {
			return nil, nil, err
		}
		mut(&rs.Config.Prefetcher.SHIFT)
		if err := resolveWorkloadInto(workloadName, &rs); err != nil {
			return nil, nil, err
		}
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
