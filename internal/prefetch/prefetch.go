// Package prefetch defines the interface between the simulator and the
// instruction prefetchers, plus the baseline prefetchers of the paper's
// evaluation: the null prefetcher (baseline system, Section 5.3) and the
// next-line prefetcher ("a common design choice in today's processors",
// Section 2.2).
//
// The history prefetchers — the paper's contribution (SHIFT) and the
// comparison points it is built from (PIF, TIFS) — live in internal/core.
package prefetch

import (
	"shift/internal/history"
	"shift/internal/trace"
)

// Request asks the simulator to prefetch an instruction block into the
// issuing core's L1-I.
type Request struct {
	// Block is the instruction block to prefetch.
	Block trace.BlockAddr
	// Delay is extra latency (in cycles) before the request can issue,
	// e.g. the round trip to read a history buffer block from the LLC in
	// virtualized SHIFT.
	Delay int64
}

// Access describes one demand L1-I access, in retire order.
type Access struct {
	// Block is the instruction block address.
	Block trace.BlockAddr
	// Hit is the L1-I outcome.
	Hit bool
	// WasPrefetch is true when Hit is true and the line was installed by
	// a prefetch that had not been demand-referenced yet.
	WasPrefetch bool
}

// Prefetcher reacts to a core's demand accesses by issuing prefetches.
// One instance serves one core; implementations may share state across
// instances (SHIFT's shared history).
type Prefetcher interface {
	// OnAccess observes a retire-order demand access and returns the
	// prefetches to issue. The returned slice is only valid until the
	// next call.
	//
	// OnAccess sits on the simulator's per-record hot path and MUST be
	// allocation-free in steady state: implementations return a slice
	// backed by a buffer they own and reuse across calls, and keep any
	// internal scratch (history reads, stream fills) in reused buffers
	// as well. Warmup growth of those buffers is fine; per-call slice or
	// map churn is not. The contract is enforced for the evaluated
	// design points by TestStepZeroAllocSteadyState in internal/sim and
	// by the allocs/record gate in the repository's benchmarks.
	OnAccess(a Access) []Request
}

// Stats is the prediction bookkeeping common to the stream-based
// prefetchers; the simulator combines it with cache-level covered /
// overpredicted accounting.
type Stats struct {
	// Accesses and Misses count demand activity observed.
	Accesses, Misses int64
	// CoveredAccesses counts accesses that fell inside an active stream
	// (the commonality metric of Figure 3).
	CoveredAccesses int64
	// CoveredMisses counts misses that fell inside an active stream (the
	// prediction-mode coverage of Figure 6).
	CoveredMisses int64
	// RecordsWritten counts spatial region records appended to history.
	RecordsWritten int64
	// IndexLookups counts the history-index lookups that try to start a
	// stream, IndexHits those that found a position to replay from, and
	// ForeignPointers the lookups of a virtualized index that met a
	// pointer another history had set. They are read per interval through
	// a simulator probe (sim.RunSpec.Probe), not from a Result's JSON,
	// whose bytes they leave as they are.
	IndexLookups    int64 `json:"-"`
	IndexHits       int64 `json:"-"`
	ForeignPointers int64 `json:"-"`
}

// AccessCoverage returns CoveredAccesses/Accesses (0 if no accesses).
func (s Stats) AccessCoverage() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.CoveredAccesses) / float64(s.Accesses)
}

// MissCoverage returns CoveredMisses/Misses (0 if no misses).
func (s Stats) MissCoverage() float64 {
	if s.Misses == 0 {
		return 0
	}
	return float64(s.CoveredMisses) / float64(s.Misses)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Misses += other.Misses
	s.CoveredAccesses += other.CoveredAccesses
	s.CoveredMisses += other.CoveredMisses
	s.RecordsWritten += other.RecordsWritten
	s.IndexLookups += other.IndexLookups
	s.IndexHits += other.IndexHits
	s.ForeignPointers += other.ForeignPointers
}

// StatsReporter is implemented by prefetchers that expose Stats.
type StatsReporter interface {
	PrefetchStats() Stats
}

// WarmNeed is what a Warmer has to be shown of a functionally stepped
// stretch of accesses.
type WarmNeed uint8

const (
	// WarmNone: nothing. The instance keeps no state that functional
	// stepping could warm (a SHIFT core that is not the history
	// generator).
	WarmNone WarmNeed = iota
	// WarmMisses: the L1-I misses only (TIFS records the miss stream).
	WarmMisses
	// WarmRecords: every access (PIF and SHIFT's generator core compact
	// the full access stream).
	WarmRecords
)

// Warmer is implemented by prefetchers whose history must keep learning
// while the simulator fast-forwards between detailed intervals of a
// sampled run (SMARTS-style functional warming). WarmAccess applies the
// history-generation side of OnAccess — region compaction and history/
// index appends — without the replay machinery (stream address buffers,
// prefetch issue) or any timing and traffic modelling, so the history a
// detailed interval replays from is exactly as warm as continuous
// detailed simulation would have left it.
//
// Like OnAccess, WarmAccess is on the hot path of its (functional) loop
// and must be allocation-free in steady state. A Warmer whose history is
// spatial region records is also a RecordWarmer, through which the
// simulator can hand it the records of a stretch compacted once for
// several instances.
type Warmer interface {
	// WarmNeeds declares which accesses WarmAccess must be called for.
	// The simulator asks once per functional stretch of a core, not per
	// access, and calls WarmAccess for no others: an instance that needs
	// none costs a functional stretch nothing. The answer may change
	// between stretches (SHIFT's generator role rotates) but not within
	// one.
	WarmNeeds() WarmNeed
	// WarmAccess observes one retire-order access during functional
	// warming. l1Hit is the L1-I outcome of the access; prefetch-buffer
	// coverage is not modelled while warming (the buffer is a small
	// timing structure that detailed warmup re-warms), so history
	// generators keyed on the effective miss stream see the raw L1 miss
	// stream instead.
	WarmAccess(blk trace.BlockAddr, l1Hit bool)
}

// RecordWarmer is a WarmRecords Warmer that compacts the access stream
// into spatial region records (PIF, SHIFT's generator core): WarmAccess is
// WarmBuilder().Add followed by WarmRecord of whatever record that
// completes. The history a stretch leaves is therefore a function of the
// builder's state and the stretch's accesses alone, and a simulator that
// holds the stretch compacted by a builder in an equal state — compared by
// value, span included — may apply those records through WarmRecord and
// set the builder to that one's end state, in place of calling WarmAccess
// access by access.
type RecordWarmer interface {
	Warmer
	// WarmBuilder returns the builder WarmAccess compacts with. It may be
	// a different one, or reset, after the instance's role changes
	// (SHIFT's generator rotation), so callers fetch it per stretch.
	WarmBuilder() *history.Builder
	// WarmRecord applies one completed record: the history and index
	// writes, with whatever side effects they have (virtualized SHIFT's
	// LLC pointer updates and history-block flushes).
	WarmRecord(r history.Region)
}

// Null is the no-prefetch baseline.
type Null struct{}

// NewNull returns the baseline (no prefetching) design.
func NewNull() *Null { return &Null{} }

// OnAccess implements Prefetcher.
func (*Null) OnAccess(Access) []Request { return nil }

// NextLine prefetches the next Degree sequential blocks on a miss or on
// the first use of a prefetched block (tagged next-line prefetching).
type NextLine struct {
	degree int
	out    []Request
	stats  Stats
}

// NewNextLine builds a next-line prefetcher with the given degree
// (1 if degree <= 0).
func NewNextLine(degree int) *NextLine {
	if degree <= 0 {
		degree = 1
	}
	return &NextLine{degree: degree}
}

// OnAccess implements Prefetcher.
func (n *NextLine) OnAccess(a Access) []Request {
	n.stats.Accesses++
	if !a.Hit {
		n.stats.Misses++
	}
	if a.Hit && !a.WasPrefetch {
		return nil
	}
	n.out = n.out[:0]
	for d := 1; d <= n.degree; d++ {
		blk := a.Block + trace.BlockAddr(d)
		if blk > trace.MaxBlockAddr {
			break
		}
		n.out = append(n.out, Request{Block: blk})
	}
	return n.out
}

// PrefetchStats implements StatsReporter.
func (n *NextLine) PrefetchStats() Stats { return n.stats }

var (
	_ Prefetcher    = (*Null)(nil)
	_ Prefetcher    = (*NextLine)(nil)
	_ StatsReporter = (*NextLine)(nil)
)
