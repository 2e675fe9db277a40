// Package pif implements Proactive Instruction Fetch (Ferdman et al.,
// MICRO 2011), the state-of-the-art per-core stream-based instruction
// prefetcher the paper compares against (Section 5.1).
//
// Each core owns a private history: a circular buffer of spatial region
// records built from its own retire-order instruction cache accesses, an
// index table from trigger addresses to history positions, and a stream
// address buffer file that replays streams and issues prefetches.
//
// That is SHIFT's replay engine over a history nobody shares: a PIF is a
// core.Private (the dedicated, zero-latency variant with the core as its
// only reader and its generator), sized by PIF's history and index
// geometry, that records the core's access stream. The paper builds
// SHIFT out of PIF's history and stream address buffers (Section 4);
// here PIF is built back out of SHIFT's, so who shares the history is a
// parameter, not a second implementation.
//
// Two design points from the paper are provided:
//
//   - PIF_32K: 32K-record history + 8K-entry index per core (the original
//     design, ~213KB/core, targeting 90% miss coverage);
//   - PIF_2K: 2K-record history + 512-entry index per core (equal total
//     storage to SHIFT's 240KB LLC tag overhead across 16 cores).
package pif

import (
	"fmt"

	"shift/internal/core"
	"shift/internal/history"
	"shift/internal/prefetch"
)

// Config sizes one core's PIF.
type Config struct {
	// HistEntries is the per-core history buffer capacity in spatial
	// region records.
	HistEntries int
	// IndexEntries and IndexAssoc size the per-core index table.
	IndexEntries, IndexAssoc int
	// SAB configures the stream address buffers.
	SAB history.SABConfig
	// Label overrides the reported name (defaults to PIF_<HistEntries>).
	Label string
}

// Config32K is the paper's original PIF design point.
func Config32K() Config {
	return Config{HistEntries: 32768, IndexEntries: 8192, IndexAssoc: 4,
		SAB: history.DefaultSABConfig(), Label: "PIF_32K"}
}

// Config2K is the equal-storage-to-SHIFT design point.
func Config2K() Config {
	return Config{HistEntries: 2048, IndexEntries: 512, IndexAssoc: 4,
		SAB: history.DefaultSABConfig(), Label: "PIF_2K"}
}

// WithHistEntries returns the 32K config rescaled to n history records,
// with the index table scaled proportionally (for the Figure 6 sweep).
func WithHistEntries(n int) Config {
	c := Config32K()
	c.HistEntries = n
	idx := n / 4
	if idx < c.SAB.Streams {
		idx = c.SAB.Streams
	}
	// Keep the index set-associative with assoc 4 when divisible.
	c.IndexAssoc = 4
	for idx%c.IndexAssoc != 0 {
		idx++
	}
	c.IndexEntries = idx
	c.Label = fmt.Sprintf("PIF_%d", n)
	return c
}

// Validate reports the first problem with c, or nil.
func (c Config) Validate() error {
	if c.HistEntries <= 0 {
		return fmt.Errorf("pif: HistEntries %d <= 0", c.HistEntries)
	}
	if c.IndexEntries <= 0 || c.IndexAssoc <= 0 || c.IndexEntries%c.IndexAssoc != 0 {
		return fmt.Errorf("pif: bad index table %d/%d", c.IndexEntries, c.IndexAssoc)
	}
	return c.SAB.Validate()
}

// Name returns the design-point label.
func (c Config) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return fmt.Sprintf("PIF_%d", c.HistEntries)
}

// PIF is one core's prefetcher: SHIFT's replay logic over a private,
// dedicated history that only this core records and reads.
type PIF struct {
	core.Private
	name string
}

// New builds a per-core PIF.
func New(cfg Config) (*PIF, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h, err := core.NewPrivate(cfg.HistEntries, cfg.IndexEntries, cfg.IndexAssoc, cfg.SAB)
	if err != nil {
		return nil, err
	}
	return &PIF{Private: h, name: cfg.Name()}, nil
}

// MustNew panics on config errors.
func MustNew(cfg Config) *PIF {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements prefetch.Prefetcher.
func (p *PIF) Name() string { return p.name }

var (
	_ prefetch.Prefetcher    = (*PIF)(nil)
	_ prefetch.StatsReporter = (*PIF)(nil)
	_ prefetch.RecordWarmer  = (*PIF)(nil)
)
