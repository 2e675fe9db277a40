package sim

import (
	"fmt"

	"shift/internal/core"
	"shift/internal/history"
	"shift/internal/trace"
	"shift/internal/workload"
)

// RunSpec bundles everything needed for one measured simulation: the
// system configuration, the workload(s), and the warmup/measurement
// window lengths (in trace records per core, the SimFlex-style warmup
// exclusion of Section 5.1).
type RunSpec struct {
	// Config is the system under test.
	Config Config
	// Workload runs on all cores (homogeneous server workload).
	Workload workload.Params
	// Groups optionally consolidates the CMP: Groups[i] runs
	// GroupWorkloads[i] (Section 4.3 / Figure 10). When set, Workload is
	// ignored and, for SHIFT, one shared history is created per group.
	Groups         []core.Group
	GroupWorkloads []workload.Params
	// Source optionally supplies the per-core record streams directly
	// (phase-sequenced workloads, trace replay — anything implementing
	// workload.Source). When set, Workload is ignored and Groups must be
	// empty. The source must be deterministic per core: batch members
	// and standalone runs draw fresh readers from it and must observe
	// identical records.
	Source workload.Source
	// WarmupRecords and MeasureRecords are per-core record counts. Their
	// sum, the window, is at most history.MaxWrites (2^30 - 1): a history
	// appends at most one record a round and numbers each by position.
	WarmupRecords  int64
	MeasureRecords int64
	// Sampling optionally enables SMARTS-style interval sampling with
	// functional warming between detailed intervals (see Sampling). The
	// zero value keeps the exact methodology, which is the default.
	Sampling Sampling
}

// validate reports the first problem with r, or nil.
func (r RunSpec) validate() error {
	if err := r.Config.validate(); err != nil {
		return err
	}
	if r.MeasureRecords <= 0 {
		return fmt.Errorf("sim: MeasureRecords %d <= 0", r.MeasureRecords)
	}
	if r.WarmupRecords < 0 {
		return fmt.Errorf("sim: WarmupRecords %d < 0", r.WarmupRecords)
	}
	// Each field is bounded before the sum is taken, so it cannot overflow.
	if r.WarmupRecords > history.MaxWrites || r.MeasureRecords > history.MaxWrites ||
		r.WarmupRecords+r.MeasureRecords > history.MaxWrites {
		return fmt.Errorf("sim: window of %d + %d records exceeds %d", r.WarmupRecords, r.MeasureRecords, history.MaxWrites)
	}
	if err := r.Sampling.validate(); err != nil {
		return err
	}
	// At least two measured intervals must fit: a single interval has
	// no dispersion to estimate, so its "error bounds" would read as
	// zero — false confidence for the least-trustworthy configuration.
	if p := r.Sampling.withDefaults(); p.Enabled() && p.intervals(r.MeasureRecords) < 2 {
		return fmt.Errorf("sim: MeasureRecords %d fits fewer than two sampling intervals (chunk is %d records: period %d x interval %d)",
			r.MeasureRecords, p.chunkRounds(), p.Period, p.IntervalRecords)
	}
	if r.Source != nil {
		if len(r.Groups) != 0 {
			return fmt.Errorf("sim: Source cannot be combined with Groups")
		}
		return nil
	}
	if len(r.Groups) != len(r.GroupWorkloads) {
		return fmt.Errorf("sim: %d groups but %d group workloads", len(r.Groups), len(r.GroupWorkloads))
	}
	if len(r.Groups) == 0 {
		return r.Workload.Validate()
	}
	for _, p := range r.GroupWorkloads {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// systemConfig is the configuration the spec's System is built with: a
// consolidated SHIFT system keeps one shared history per group, so the
// histories align with the traces.
func (r RunSpec) systemConfig() Config {
	cfg := r.Config
	if len(r.Groups) > 0 && cfg.Prefetcher.Kind == KindHistory && !cfg.Prefetcher.PerCore {
		cfg.Prefetcher.Groups = r.Groups
	}
	return cfg
}

// openReaders opens the spec's per-core record streams from their start.
func (r RunSpec) openReaders() ([]trace.Reader, error) {
	readers := make([]trace.Reader, r.Config.Cores)
	if r.Source != nil {
		for i := range readers {
			rd, err := r.Source.NewCoreReader(i)
			if err != nil {
				return nil, fmt.Errorf("sim: source reader for core %d: %w", i, err)
			}
			readers[i] = rd
		}
		return readers, nil
	}
	if len(r.Groups) == 0 {
		w, err := workload.Cached(r.Workload)
		if err != nil {
			return nil, err
		}
		for i := range readers {
			readers[i] = w.NewCoreReader(i)
		}
		return readers, nil
	}
	for gi, g := range r.Groups {
		w, err := workload.Cached(r.GroupWorkloads[gi])
		if err != nil {
			return nil, fmt.Errorf("group %q: %w", g.Name, err)
		}
		for _, c := range g.Cores {
			if c < 0 || c >= len(readers) {
				return nil, fmt.Errorf("group %q core %d out of range", g.Name, c)
			}
			readers[c] = w.NewCoreReader(c)
		}
	}
	for i, rd := range readers {
		if rd == nil {
			return nil, fmt.Errorf("core %d not assigned to any group", i)
		}
	}
	return readers, nil
}

// Run executes the spec: open the record streams, construct the system,
// walk the warmup→measure schedule, and return the results. A run is a
// batch of one — RunBatch with a single member, which has no follower
// and therefore builds no lead log — so an invalid spec fails with its
// own error, unlabelled.
func Run(spec RunSpec) (Result, error) {
	rs, err := RunBatch([]RunSpec{spec})
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// checkSupply rejects, up front, streams that declare (via
// trace.Supplier) fewer records than the window needs.
func (s *System) checkSupply(need int64) error {
	for i, r := range s.readers {
		if sup, ok := r.(trace.Supplier); ok {
			if have := sup.Supply(); have < need {
				return &StreamShortError{Phase: "validate", Core: i, Need: need, Have: have}
			}
		}
	}
	return nil
}

// consumedBase snapshots the per-core consumed-record counters so
// checkConsumed can verify a window afterwards.
func (s *System) consumedBase() []int64 {
	base := make([]int64, len(s.records))
	copy(base, s.records)
	return base
}

// checkConsumed verifies that every core consumed the full window since
// base. The lockstep round loop keeps counting rounds while any core is
// still active, so a single dry stream would otherwise short-measure
// its core silently while the run as a whole reports success.
func (s *System) checkConsumed(base []int64, need int64) error {
	for c := range s.records {
		if got := s.records[c] - base[c]; got < need {
			return &StreamShortError{Phase: "measure", Core: c, Need: need, Have: got}
		}
	}
	return nil
}
