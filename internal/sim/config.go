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
	"shift/internal/pif"
	"shift/internal/tifs"
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
	// KindPIF is per-core Proactive Instruction Fetch.
	KindPIF
	// KindSHIFT is the shared-history prefetcher (both variants).
	KindSHIFT
	// KindTIFS is the miss-stream predecessor of PIF (extension; not in
	// the paper's evaluated set).
	KindTIFS
)

// PrefetcherSpec fully describes the prefetcher configuration of a run.
type PrefetcherSpec struct {
	// Kind selects the design.
	Kind PrefetcherKind
	// NextLineDegree configures KindNextLine (default 1).
	NextLineDegree int
	// PIF configures KindPIF (per-core instances share nothing).
	PIF pif.Config
	// TIFS configures KindTIFS.
	TIFS tifs.Config
	// SHIFT configures KindSHIFT.
	SHIFT core.Config
	// Groups optionally consolidates the CMP into multiple workloads,
	// one shared history each (Section 4.3). Empty means a single
	// homogeneous workload across all cores.
	Groups []core.Group
	// AdaptiveGenerator enables the Section 6.1 sampling mechanism that
	// monitors miss coverage and rotates the history generator core on
	// long-lasting degradation. AdaptWindow is the sampling window in
	// lockstep rounds (default 8192).
	AdaptiveGenerator bool
	AdaptWindow       int64
}

// Name returns the design-point label used in figures.
func (p PrefetcherSpec) Name() string {
	switch p.Kind {
	case KindNone:
		return "Baseline"
	case KindNextLine:
		return "NextLine"
	case KindPIF:
		return p.PIF.Name()
	case KindTIFS:
		return "TIFS"
	case KindSHIFT:
		return p.SHIFT.Variant.String()
	default:
		return fmt.Sprintf("PrefetcherKind(%d)", int(p.Kind))
	}
}

// regionSpan is the span at which the design's Warmer compacts the access
// stream into spatial region records (see prefetch.RecordWarmer), 0 for a
// design that compacts none.
func (p PrefetcherSpec) regionSpan() int {
	switch p.Kind {
	case KindPIF:
		return p.PIF.SAB.Span
	case KindSHIFT:
		return p.SHIFT.SAB.Span
	}
	return 0
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

// Validate reports the first problem with c, or nil.
func (c Config) Validate() error {
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
	switch c.Prefetcher.Kind {
	case KindNone, KindNextLine:
	case KindPIF:
		if err := c.Prefetcher.PIF.Validate(); err != nil {
			return err
		}
	case KindSHIFT:
		if err := c.Prefetcher.SHIFT.Validate(); err != nil {
			return err
		}
	case KindTIFS:
		if err := c.Prefetcher.TIFS.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("sim: unknown prefetcher kind %d", c.Prefetcher.Kind)
	}
	return nil
}
