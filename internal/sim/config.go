// Package sim is the full-system simulator: it binds the synthetic
// workload traces, the per-core frontends (clock + branch predictor +
// L1-I), the banked NUCA LLC, the mesh interconnect, and a prefetcher
// design point into the 16-core tiled CMP of Table I, and runs them in
// lockstep to produce the measurements behind every figure of the paper.
//
// Two modes mirror the paper's two methodologies:
//
//   - ModePrefetch (default): prefetches are actually issued into the
//     L1-I, perturbing cache state; covered/uncovered/overpredicted come
//     from cache-level accounting (Figures 7-10).
//   - ModePrediction: prefetch requests are suppressed and only the
//     stream-address-buffer bookkeeping runs, exactly like the paper's
//     trace-based opportunity studies ("we only track the predictions
//     ... and do not prefetch or perturb the instruction cache state",
//     Section 5.2; used for Figures 3 and 6).
package sim

import (
	"fmt"

	"shift/internal/cache"
	"shift/internal/core"
	"shift/internal/cpu"
	"shift/internal/noc"
)

// Mode selects the simulation methodology.
type Mode int

const (
	// ModePrefetch issues prefetches into the L1-I.
	ModePrefetch Mode = iota
	// ModePrediction only tracks would-be predictions.
	ModePrediction
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModePrefetch:
		return "prefetch"
	case ModePrediction:
		return "prediction"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// PrefetcherKind selects the prefetcher design point.
type PrefetcherKind int

const (
	// KindNone is the no-prefetch baseline.
	KindNone PrefetcherKind = iota
	// KindNextLine is the next-line prefetcher of Section 2.2.
	KindNextLine
	// KindHistory is a history prefetcher: SHIFT's replay engine over
	// histories of History's geometry and storage, one shared by all
	// cores (SHIFT, ZeroLat-SHIFT), one per Groups entry (Section 4.3) or
	// one per core (PerCore: PIF, and TIFS when History records misses).
	KindHistory
)

// PrefetcherSpec fully describes the prefetcher configuration of a run.
type PrefetcherSpec struct {
	// Kind selects the design.
	Kind PrefetcherKind
	// NextLineDegree configures KindNextLine (default 1).
	NextLineDegree int
	// History configures KindHistory: each history's storage, geometry
	// and recording policy (see core.Config; core.PIFConfig and
	// core.TIFSConfig give the per-core designs').
	History core.Config
	// PerCore gives every core a history of its own, which it alone
	// records and replays, instead of one history for all cores.
	PerCore bool
	// Groups optionally consolidates the CMP into multiple workloads,
	// one shared history each (Section 4.3). Empty means a single
	// homogeneous workload across all cores.
	Groups []core.Group
	// AdaptiveGenerator enables the Section 6.1 sampling mechanism that
	// monitors miss coverage and rotates the history generator core on
	// long-lasting degradation. AdaptWindow is the sampling window in
	// lockstep rounds (default 8192). A PerCore spec cannot take it: a
	// history of one core has no other generator.
	AdaptiveGenerator bool
	AdaptWindow       int64
	// Label overrides the reported name (see Name).
	Label string
}

// Name returns the design-point label used in figures: Label if set,
// else TIFS for per-core miss histories, core.PIFLabel for other
// per-core histories, and the storage variant's name for a shared one.
func (p PrefetcherSpec) Name() string {
	switch {
	case p.Label != "":
		return p.Label
	case p.Kind == KindNone:
		return "Baseline"
	case p.Kind == KindNextLine:
		return "NextLine"
	case p.Kind != KindHistory:
		return fmt.Sprintf("PrefetcherKind(%d)", int(p.Kind))
	case p.PerCore && p.History.RecordMisses:
		return "TIFS"
	case p.PerCore:
		return core.PIFLabel(p.History.HistEntries)
	default:
		return p.History.Variant.String()
	}
}

// regionSpan is the span at which the design's Warmer compacts the access
// stream into spatial region records (see prefetch.RecordWarmer), 0 for a
// design that compacts none.
func (p PrefetcherSpec) regionSpan() int {
	if p.Kind != KindHistory || p.History.RecordMisses {
		return 0
	}
	return p.History.SAB.Span
}

// Config describes one simulated system (Table I defaults via
// DefaultConfig).
type Config struct {
	// Cores is the core count (16 in the paper).
	Cores int
	// CoreType selects the core microarchitecture.
	CoreType cpu.CoreType
	// L1I is the per-core instruction cache geometry.
	L1I cache.Config
	// L1MSHRs is the per-core L1 MSHR count (Table I lists 32 for L1-D;
	// the same file is used for the fetch path here).
	L1MSHRs int
	// LLCBankBytes and LLCAssoc size each of the 16 NUCA banks
	// (512KB per core, 16-way).
	LLCBankBytes int
	LLCAssoc     int
	// Mesh is the interconnect geometry.
	Mesh noc.Config
	// L2HitCycles is the LLC bank hit latency (Table I: 5).
	L2HitCycles int64
	// MemCycles is main memory latency in cycles (Table I: 45ns at
	// 2GHz = 90).
	MemCycles int64
	// BranchPredictorEntries sizes the hybrid predictor (Table I: 16K).
	// Zero disables branch modelling.
	BranchPredictorEntries int
	// PrefetchBufferEntries sizes the per-core prefetch buffer that
	// holds prefetched blocks until first demand use. It must cover the
	// in-flight window of the stream prefetchers (4 streams x ~5 regions
	// x ~3.5 blocks); default 128.
	PrefetchBufferEntries int
	// Prefetcher is the design point under test.
	Prefetcher PrefetcherSpec
	// Mode selects prefetch vs prediction-only simulation.
	Mode Mode
	// ElimProb converts each instruction miss into a hit with this
	// probability without exposing its latency (the Figure 1
	// methodology). Zero disables.
	ElimProb float64
	// DataMPKI is the background data-side LLC traffic rate in accesses
	// per kilo-instruction, used to normalize Figure 9 against total
	// baseline LLC traffic (a documented substitution for the paper's
	// full data-path simulation).
	DataMPKI float64
	// Seed drives the simulator's internal randomness (miss elimination
	// sampling, data-traffic bank spreading).
	Seed int64
}

// DefaultConfig returns the Table I system with the baseline (no
// prefetching) design.
func DefaultConfig() Config {
	return Config{
		Cores:    16,
		CoreType: cpu.LeanOoO,
		L1I:      cache.Config{SizeBytes: 32 * 1024, Assoc: 2, BlockBytes: 64},
		L1MSHRs:  32,
		// 512KB per core, 16 banks, 16-way.
		LLCBankBytes:           512 * 1024,
		LLCAssoc:               16,
		Mesh:                   noc.DefaultConfig(),
		L2HitCycles:            5,
		MemCycles:              90,
		BranchPredictorEntries: 16384,
		PrefetchBufferEntries:  128,
		Prefetcher:             PrefetcherSpec{Kind: KindNone},
		DataMPKI:               12,
		Seed:                   1,
	}
}

// validate reports the first problem with c, or nil.
func (c Config) validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("sim: Cores %d <= 0", c.Cores)
	}
	if err := c.Mesh.Validate(); err != nil {
		return err
	}
	if c.Cores > c.Mesh.Tiles() {
		return fmt.Errorf("sim: %d cores exceed %d mesh tiles", c.Cores, c.Mesh.Tiles())
	}
	if err := c.L1I.Validate(); err != nil {
		return fmt.Errorf("sim: L1I: %w", err)
	}
	bank := cache.Config{SizeBytes: c.LLCBankBytes, Assoc: c.LLCAssoc, BlockBytes: 64}
	if err := bank.ValidateLLCBank(); err != nil {
		return fmt.Errorf("sim: LLC bank: %w", err)
	}
	if c.L1MSHRs <= 0 {
		return fmt.Errorf("sim: L1MSHRs %d <= 0", c.L1MSHRs)
	}
	if c.PrefetchBufferEntries < 0 || c.PrefetchBufferEntries > cache.MaxPrefetchBufferEntries {
		return fmt.Errorf("sim: PrefetchBufferEntries %d out of [0,%d]", c.PrefetchBufferEntries, cache.MaxPrefetchBufferEntries)
	}
	if c.L2HitCycles < 0 || c.MemCycles < 0 {
		return fmt.Errorf("sim: negative latency")
	}
	if c.ElimProb < 0 || c.ElimProb > 1 {
		return fmt.Errorf("sim: ElimProb %v out of [0,1]", c.ElimProb)
	}
	if c.DataMPKI < 0 {
		return fmt.Errorf("sim: DataMPKI %v < 0", c.DataMPKI)
	}
	if !c.CoreType.Valid() {
		return fmt.Errorf("sim: invalid core type %d", c.CoreType)
	}
	switch p := c.Prefetcher; p.Kind {
	case KindNone, KindNextLine:
	case KindHistory:
		if p.PerCore && len(p.Groups) > 0 {
			return fmt.Errorf("sim: PerCore histories cannot be combined with Groups")
		}
		// A per-core history's one core is its generator for good: there
		// is no other core to rotate the role to.
		if p.PerCore && p.AdaptiveGenerator {
			return fmt.Errorf("sim: PerCore histories cannot be combined with AdaptiveGenerator")
		}
		return p.History.Validate()
	default:
		return fmt.Errorf("sim: unknown prefetcher kind %d", p.Kind)
	}
	return nil
}
