// Package shift is a from-scratch reproduction of "SHIFT: Shared History
// Instruction Fetch for Lean-Core Server Processors" (Kaynak, Grot,
// Falsafi; MICRO-46, 2013).
//
// The package exposes a public API over the full simulation stack in
// internal/: synthetic server workloads (Table I), a 16-core tiled CMP
// simulator (cores, L1-I caches, banked NUCA LLC, 2D mesh), the
// prefetcher design points of the paper's evaluation (next-line, PIF_2K,
// PIF_32K, ZeroLat-SHIFT, virtualized SHIFT), and one experiment driver
// per figure and table of the paper. See ARCHITECTURE.md for the system
// inventory and FIDELITY.md for paper-vs-measured results.
//
// Quick start:
//
//	res, err := shift.Run(shift.DefaultRunConfig("OLTP Oracle", shift.DesignSHIFT))
//	base, err := shift.Run(shift.DefaultRunConfig("OLTP Oracle", shift.DesignBaseline))
//	fmt.Printf("SHIFT speedup: %.2fx\n", res.Throughput/base.Throughput)
//
// or run a whole experiment:
//
//	fig8, err := shift.RunFigure8(shift.DefaultOptions())
//	fmt.Println(fig8)
//
// # Experiment engine
//
// Every experiment driver decomposes its figure into independent cells
// (workload × design × config variant) and submits them to an
// experiment engine that executes the grid across a bounded worker
// pool and merges results deterministically: results are keyed and
// ordered by cell, never by completion time, so a parallel run is
// bit-identical to a serial run for the same seed. Options.Engine
// chooses the engine: NewEngine's bound sizes the pool (0 = GOMAXPROCS,
// 1 = serial) and its store — a ResultCache, say — memoizes cells
// content-addressed by Config hash, letting repeated sweeps — and
// figures that share cells, like the per-workload baselines — skip
// already-computed simulations:
//
//	o := shift.DefaultOptions()
//	o.Engine = shift.NewEngine(8, shift.NewResultCache()) // 8 workers, same output
//	fig7, err := shift.RunFigure7(o)
//	fig8, err := shift.RunFigure8(o) // baselines served from cache
//
// Cells that consume the same trace stream (equal Config.StreamKeys —
// the different designs of one workload) are executed as a single
// batch: RunBatch generates the per-core record stream once and fans
// it out to every member, sharing the design-independent per-record
// work. Batching never changes results (each member sees exactly the
// record order of a standalone Run), and there is no other way to run:
// a cell alone on its stream — and Run itself — is a batch of one, one
// member walking the same warmup→measure schedule with no follower to
// publish a log for.
//
// # Sampled execution
//
// For sweeps where breadth matters more than per-cell exactness,
// Options.Sampling (or Config.Sampling, shiftsim -sample, shiftd's
// sample_period) switches a run to SMARTS-style interval sampling:
// one interval in Sampling.Period is simulated in detail and the rest
// are fast-forwarded with functional warming — caches, branch
// predictors, and prefetcher histories keep learning while timing
// stands still. Sampled results carry standard-error and confidence-
// interval fields (RunResult.MPKICI, ThroughputCI, ...), run ~5x
// faster on a long-window figure sweep, and are keyed separately from
// exact results in every store. Exact simulation remains the default;
// see ARCHITECTURE.md "Sampled execution" for the accuracy contract.
//
// Custom grids go through the engine directly:
//
//	e := shift.NewEngine(4, shift.NewResultCache())
//	results, err := e.RunAll(cells) // results[i] belongs to cells[i]
//
// cmd/shiftsim runs every experiment on one engine over a ResultCache,
// with its -parallel bound.
//
// # Result stores and serving
//
// The engine's storage is pluggable (ResultStore): NewResultCache
// keeps results in memory, and a BlobStore persists one JSON blob per
// cell — NewDiskStore under a content-addressed directory (atomic
// writes; safe to share between processes), NewTieredStore with a
// memory tier in front, the remote constructors on a cluster peer — so
// a sweep repeated across process restarts simulates nothing
// (cmd/shiftsim -cache-dir):
//
//	st, err := shift.NewTieredStore("~/.shiftcache")
//	o.Engine = shift.NewEngine(0, st) // every figure cell now survives this process
//
// The engine is safe for concurrent use and deduplicates identical
// in-flight cells across callers, which is what cmd/shiftd builds on:
// a long-running HTTP service holding one engine and one tiered store,
// serving single cells (POST /v1/run), grids (POST /v1/grid), and
// whole figures (GET /v1/figures/{n}) to many clients while paying for
// each unique simulation once. RunExperiment is the shared by-name
// dispatch behind both binaries, so served figures are byte-identical
// to CLI output. See ARCHITECTURE.md for the full tour.
package shift

import (
	"fmt"

	"shift/internal/area"
	"shift/internal/core"
	"shift/internal/cpu"
	"shift/internal/noc"
	"shift/internal/sim"
	"shift/internal/spec"
	"shift/internal/validate"
	"shift/internal/workload"
)

// CoreType selects a core microarchitecture (Table I / Section 2.3). It
// is the simulator's own type: Validate refuses a value that names no
// core under the "core_type" field.
type CoreType = cpu.CoreType

const (
	// LeanOoO is the ARM Cortex-A15-class core used for the paper's main
	// results.
	LeanOoO = cpu.LeanOoO
	// FatOoO is the Xeon-class core.
	FatOoO = cpu.FatOoO
	// LeanIO is the ARM Cortex-A8-class in-order core.
	LeanIO = cpu.LeanIO
)

// AllCoreTypes returns the three evaluated core designs.
func AllCoreTypes() []CoreType { return []CoreType{FatOoO, LeanOoO, LeanIO} }

// Design is a prefetcher design point from the paper's evaluation.
type Design int

const (
	// DesignBaseline is the no-prefetch system.
	DesignBaseline Design = iota
	// DesignNextLine is the next-line prefetcher of Section 2.2.
	DesignNextLine
	// DesignPIF2K is per-core PIF with 2K records + 512 index entries
	// (equal aggregate storage to SHIFT).
	DesignPIF2K
	// DesignPIF32K is the original PIF design (32K records, 8K index).
	DesignPIF32K
	// DesignZeroLatSHIFT is SHIFT with dedicated zero-latency history
	// storage (the paper's ZeroLat-SHIFT).
	DesignZeroLatSHIFT
	// DesignSHIFT is the full virtualized SHIFT (history in the LLC).
	DesignSHIFT
	// DesignTIFS is the miss-stream predecessor of PIF (Ferdman et al.,
	// MICRO 2008) — an extension beyond the paper's evaluated set, for
	// studying the access-vs-miss-stream design choice of Section 2.2.
	DesignTIFS
)

// design is everything the package knows about one design point.
type design struct {
	// name is the figure-legend name (Design.String, ParseDesign), and the
	// label of every spec the row builds that does not label itself.
	name string
	// spec builds the simulated prefetcher: histEntries > 0 overrides the
	// history capacity (Figure 6), commonality starts replay on any
	// uncovered access (the Section 3 study). A spec whose override makes
	// it another design point sets its own Label.
	spec func(histEntries int, commonality bool) sim.PrefetcherSpec
	// areaMM2 is the per-core area of the design's dedicated storage on a
	// CMP of the given size (nil: none).
	areaMM2 func(cores int) float64
}

// designs is the design table, one row per Design. A new design point is
// a constant above and a row here; a new history design is a core.Config
// and the two bits of sim.PrefetcherSpec, and needs no code in
// internal/sim.
var designs = [...]design{
	DesignBaseline: {name: "Baseline", spec: func(int, bool) sim.PrefetcherSpec {
		return sim.PrefetcherSpec{Kind: sim.KindNone}
	}},
	DesignNextLine: {name: "NextLine", spec: func(int, bool) sim.PrefetcherSpec {
		return sim.PrefetcherSpec{Kind: sim.KindNextLine}
	}},
	DesignPIF2K:        pifDesign("PIF_2K", core.PIF2K),
	DesignPIF32K:       pifDesign("PIF_32K", core.PIF32K),
	DesignZeroLatSHIFT: shiftDesign("ZeroLat-SHIFT", core.Dedicated),
	DesignSHIFT:        shiftDesign("SHIFT", core.Virtualized),
	DesignTIFS: {name: "TIFS", spec: func(histEntries int, _ bool) sim.PrefetcherSpec {
		tc := core.TIFSConfig()
		if histEntries > 0 {
			tc.HistEntries = histEntries
		}
		return sim.PrefetcherSpec{Kind: sim.KindHistory, History: tc, PerCore: true}
	}},
}

// pifDesign is a per-core PIF row of the given history records. An
// overridden history capacity rescales the design, labelled
// PIF_<records>.
func pifDesign(name string, records int) design {
	return design{
		name: name,
		spec: func(histEntries int, _ bool) sim.PrefetcherSpec {
			if histEntries > 0 {
				return sim.PrefetcherSpec{Kind: sim.KindHistory, History: core.PIFConfig(histEntries), PerCore: true,
					Label: fmt.Sprintf("PIF_%d", histEntries)}
			}
			return sim.PrefetcherSpec{Kind: sim.KindHistory, History: core.PIFConfig(records), PerCore: true}
		},
		areaMM2: func(int) float64 {
			c := core.PIFConfig(records)
			return area.PIFAreaPerCoreMM2(c.HistEntries, c.IndexEntries)
		},
	}
}

// shiftDesign is a SHIFT row with the given history placement. Its only
// area cost is the LLC tag extension, shared by all cores ("0.96mm2 in
// total").
func shiftDesign(name string, v core.Variant) design {
	return design{
		name: name,
		spec: func(histEntries int, commonality bool) sim.PrefetcherSpec {
			sc := core.DefaultConfig()
			sc.Variant = v
			if histEntries > 0 {
				sc.HistEntries = histEntries
			}
			sc.AllocOnAccess = commonality
			return sim.PrefetcherSpec{Kind: sim.KindHistory, History: sc}
		},
		areaMM2: func(cores int) float64 { return area.SHIFTTotalAreaMM2() / float64(cores) },
	}
}

// String names the design point as in the paper's figures.
func (d Design) String() string {
	if d >= 0 && int(d) < len(designs) {
		return designs[d].name
	}
	return fmt.Sprintf("Design(%d)", int(d))
}

// areaPerCore is d's per-core prefetcher area in mm² on a CMP of the
// given size (0 for designs without dedicated storage).
func (d Design) areaPerCore(cores int) float64 {
	if a := designs[d].areaMM2; a != nil {
		return a(cores)
	}
	return 0
}

// FigureDesigns returns the comparison set of Figures 8 and 10.
func FigureDesigns() []Design {
	return []Design{DesignNextLine, DesignPIF2K, DesignPIF32K, DesignZeroLatSHIFT, DesignSHIFT}
}

// Workloads returns the names of the seven Table I server workloads.
func Workloads() []string { return workload.Names() }

// Config describes a single simulation run.
type Config struct {
	// Workload is one of Workloads().
	Workload string
	// Design is the prefetcher design point.
	Design Design
	// CoreType selects the core microarchitecture (default Lean-OoO).
	CoreType CoreType
	// Cores is the core count (0 = default 16; at most the 4x4 mesh's 16).
	Cores int
	// HistEntries overrides the history-record capacity (0 = design
	// default: 32K for PIF_32K/SHIFT, 2K for PIF_2K; at most 2^20). Used
	// by the Figure 6 sweep.
	HistEntries int
	// PredictionOnly runs the Section 5.2 trace-based methodology: no
	// prefetches are issued and coverage is tracked in the stream
	// address buffers only.
	PredictionOnly bool
	// CommonalityMode additionally starts replay on any uncovered access
	// (the Section 3 study); implies prediction-style accounting.
	CommonalityMode bool
	// ElimProb converts each instruction miss into a hit with this
	// probability (the Figure 1 methodology).
	ElimProb float64
	// WarmupRecords and MeasureRecords are per-core trace lengths
	// (defaults 60000/60000).
	WarmupRecords, MeasureRecords int64
	// Seed drives simulator-internal randomness.
	Seed int64
	// Sampling optionally runs the cell with interval sampling and
	// functional warming instead of exact simulation (see Sampling).
	// The zero value — the default everywhere — is exact simulation.
	Sampling Sampling
}

// Sampling configures SMARTS-style interval sampling for a run: instead
// of stepping the detailed model over every record of the measurement
// window, the simulator measures one short detailed interval out of
// every Period, fast-forwards between them with cheap functional
// warming (caches, branch predictors, and prefetcher histories keep
// learning; timing stands still), and reports each metric with a
// standard error and confidence interval computed from the
// per-interval samples. Exact simulation remains the default; sampled
// results are approximations with quantified error, never byte-
// comparable to exact ones. It is the simulator's own policy type; see
// its fields for the defaults a zero field stands for.
type Sampling = sim.Sampling

// DefaultRunConfig returns a 16-core Lean-OoO Table I configuration for
// the given workload and design: Config's defaults, spelled out.
func DefaultRunConfig(workloadName string, d Design) Config {
	return Config{Workload: workloadName, Design: d, CoreType: LeanOoO, Seed: 1}.Resolved()
}

// Resolved returns c with each field whose zero value stands for a
// default set to that default: 16 cores (the Table I CMP), a window of
// 60,000 + 60,000 records a core, and, for a sampled cell, the policy's
// default interval, warmup fraction and confidence (a policy that does
// not sample becomes the zero policy). It resolves and does not check
// (Validate does). A cell's Key hashes its fields as written, so c and
// c.Resolved() run the same simulation under different keys.
func (c Config) Resolved() Config {
	if c.Cores == 0 {
		c.Cores = sim.DefaultConfig().Cores
	}
	if c.WarmupRecords == 0 {
		c.WarmupRecords = 60000
	}
	if c.MeasureRecords == 0 {
		c.MeasureRecords = 60000
	}
	c.Sampling = c.Sampling.Normalized()
	return c
}

// maxHistEntries bounds a history-capacity override: twice Figure 6's
// largest point (512 K records). PIF's index table is allocated up front
// at a quarter of it, so a larger one would only ask the host for tables
// it cannot allocate.
const maxHistEntries = 1 << 20

// Validate reports whether c is a simulation this package runs: nil, or
// the error Run(c) would fail with before simulating anything. A refused
// field is a *FieldError under its wire name ("cores", "hist_entries",
// "workload", "sample_period", ...). It is the one check every front end
// calls — Options, shiftd's cells and figure queries, a cluster worker —
// and the one RunBatch applies, so no path runs a cell it refuses.
func (c Config) Validate() error {
	rs, err := c.spec()
	if err != nil {
		return err
	}
	return rs.Validate()
}

// spec translates the public Config into an internal sim.RunSpec,
// refusing a history capacity out of range (the simulator checks the
// rest). The Workload field resolves either to a Table I catalog workload
// or — for "spec:" IDs — to a registered compiled spec, whose
// single/mix/source form maps onto the run spec's Workload/Groups/Source.
func (c Config) spec() (sim.RunSpec, error) { return c.specOf(nil) }

// specOf is spec with the workload resolved to comp, registered or not,
// when comp is not nil.
func (c Config) specOf(comp *spec.Compiled) (sim.RunSpec, error) {
	if c.Design < 0 || int(c.Design) >= len(designs) {
		return sim.RunSpec{}, fmt.Errorf("shift: unknown design %d", c.Design)
	}
	if c.HistEntries < 0 || c.HistEntries > maxHistEntries {
		return sim.RunSpec{}, validate.Fieldf("hist_entries", "must be in [0,%d], got %d", maxHistEntries, c.HistEntries)
	}
	r := c.Resolved()
	sc := sim.DefaultConfig()
	sc.CoreType = c.CoreType
	sc.Cores = r.Cores
	sc.Seed = c.Seed
	sc.ElimProb = c.ElimProb
	if c.PredictionOnly || c.CommonalityMode {
		sc.Mode = sim.ModePrediction
	}
	row := designs[c.Design]
	sc.Prefetcher = row.spec(c.HistEntries, c.CommonalityMode)
	if sc.Prefetcher.Label == "" {
		sc.Prefetcher.Label = row.name
	}
	rs := sim.RunSpec{
		Config:         sc,
		WarmupRecords:  r.WarmupRecords,
		MeasureRecords: r.MeasureRecords,
		// The policy as written, not resolved: the simulator checks its
		// fields whatever the period.
		Sampling: c.Sampling,
	}
	var err error
	if comp != nil {
		err = specWorkload(comp, &rs)
	} else {
		err = resolveWorkloadInto(c.Workload, &rs)
	}
	if err != nil {
		return sim.RunSpec{}, err
	}
	return rs, nil
}

// TrafficCounts breaks LLC/NoC traffic down by message class
// (message counts; Hops fields accumulate round-trip hop counts for the
// power model).
type TrafficCounts struct {
	// DemandInstr and DemandData are demand instruction and data
	// messages (the Figure 9 normalization base).
	DemandInstr, DemandData int64
	// PrefetchFill counts prefetched-block fills into the buffers.
	PrefetchFill int64
	// HistRead and HistWrite are shared-history log reads and writes.
	HistRead, HistWrite int64
	// IndexUpdate counts index writes (LLC tag array only).
	IndexUpdate int64
	// Discard counts prefetched blocks evicted before use.
	Discard int64
	// HistReadHops/HistWriteHops/IndexUpdateHops accumulate round-trip
	// mesh hop counts for the power model.
	HistReadHops, HistWriteHops, IndexUpdateHops int64
}

// Demand returns the demand traffic (instruction + data), the Figure 9
// normalization denominator.
func (t TrafficCounts) Demand() int64 { return t.DemandInstr + t.DemandData }

// RunResult summarizes one simulation run.
type RunResult struct {
	// Design and Workload identify the run.
	Design, Workload string
	// Cores is the simulated core count.
	Cores int
	// Instructions and Records are totals over the measurement window.
	Instructions, Records int64
	// MeanCoreCycles is the per-core average cycle count of the window.
	MeanCoreCycles int64
	// Throughput is the sum of per-core IPC (the paper's performance
	// metric: application instructions over cycles).
	Throughput float64
	// MPKI is effective L1-I misses per kilo-instruction.
	MPKI float64
	// FetchStallFraction is the share of cycles lost to exposed
	// instruction-fetch stalls.
	FetchStallFraction float64
	// BranchAccuracy is the hybrid predictor accuracy.
	BranchAccuracy float64
	// Accesses/Misses/CoveredByPrefetch/Discards are demand-fetch
	// outcomes (Misses are effective misses after the prefetch buffer).
	Accesses, Misses, CoveredByPrefetch, Discards int64
	// MissCoverage and AccessCoverage are the prediction-mode coverages
	// (Figures 6 and 3 respectively).
	MissCoverage, AccessCoverage float64
	// Traffic is the per-class traffic breakdown.
	Traffic TrafficCounts
	// HistRecordsWritten counts spatial region records appended to the
	// (shared or per-core) history.
	HistRecordsWritten int64

	// Sampled reports whether the run used interval sampling; when
	// true, every metric above aggregates the measured detailed
	// intervals only and the error-bound fields below are populated.
	Sampled bool
	// SampledIntervals is the number of measured detailed intervals.
	SampledIntervals int32
	// SampleConfidence is the confidence level of the CI fields
	// (0.90, 0.95, or 0.99).
	SampleConfidence float64
	// MPKIStdErr and MPKICI are the standard error and the confidence-
	// interval half width of MPKI across the measured intervals.
	MPKIStdErr, MPKICI float64
	// ThroughputStdErr and ThroughputCI are the same bounds for
	// Throughput.
	ThroughputStdErr, ThroughputCI float64

	// Groups holds a consolidated (mix) run's rows, one per core group in
	// group order; nil (absent from the JSON) for a homogeneous run. It is
	// a pointer, and SampledIntervals an int32, so that a homogeneous
	// result takes no more heap than before the field.
	Groups *[]GroupResult `json:",omitempty"`
}

// GroupResult is one core group's row of a consolidated run.
type GroupResult struct {
	// Name is the group's name: its mix client's name.
	Name string
	// Throughput is the sum of the group's cores' IPC.
	Throughput float64
}

// groupRows sums r's per-core IPC over each group's cores, in core
// order; nil when the run has no groups.
func groupRows(groups []core.Group, r sim.Result) *[]GroupResult {
	if len(groups) == 0 {
		return nil
	}
	rows := make([]GroupResult, len(groups))
	for i, g := range groups {
		rows[i].Name = g.Name
		for _, c := range g.Cores {
			rows[i].Throughput += r.PerCore[c].IPC
		}
	}
	return &rows
}

func fromSim(r sim.Result, workloadName string) RunResult {
	out := RunResult{
		Design:             r.Label,
		Workload:           WorkloadDisplayName(workloadName),
		Cores:              r.Cores,
		Instructions:       r.Instructions,
		Records:            r.Records,
		Throughput:         r.Throughput,
		MPKI:               r.MPKI,
		FetchStallFraction: r.FetchStallFraction,
		BranchAccuracy:     r.BranchAccuracy,
		Accesses:           r.Fetch.Accesses,
		Misses:             r.Fetch.Misses,
		CoveredByPrefetch:  r.Fetch.PBHits,
		Discards:           r.Fetch.Discards,
		MissCoverage:       r.MissCoverage(),
		AccessCoverage:     r.AccessCoverage(),
		HistRecordsWritten: r.Pf.RecordsWritten,
	}
	var cycles int64
	for _, c := range r.PerCore {
		cycles += c.Cycles
	}
	if r.Cores > 0 {
		out.MeanCoreCycles = cycles / int64(r.Cores)
	}
	if st := r.Sampled; st != nil {
		out.Sampled = true
		out.SampledIntervals = int32(st.Intervals)
		out.SampleConfidence = st.Confidence
		out.MPKIStdErr = st.MPKI.StdErr
		out.MPKICI = st.MPKI.CIHalfWidth
		out.ThroughputStdErr = st.Throughput.StdErr
		out.ThroughputCI = st.Throughput.CIHalfWidth
	}
	out.Traffic = TrafficCounts{
		DemandInstr:     r.Traffic[noc.DemandInstr],
		DemandData:      r.Traffic[noc.DemandData],
		PrefetchFill:    r.Traffic[noc.PrefetchFill],
		HistRead:        r.Traffic[noc.HistRead],
		HistWrite:       r.Traffic[noc.HistWrite],
		IndexUpdate:     r.Traffic[noc.IndexUpdate],
		Discard:         r.Traffic[noc.Discard],
		HistReadHops:    r.Hops[noc.HistRead],
		HistWriteHops:   r.Hops[noc.HistWrite],
		IndexUpdateHops: r.Hops[noc.IndexUpdate],
	}
	return out
}

// Run executes one simulation: a RunBatch of one.
func Run(cfg Config) (RunResult, error) {
	rs, err := RunBatch([]Config{cfg})
	if err != nil {
		return RunResult{}, err
	}
	return rs[0], nil
}
