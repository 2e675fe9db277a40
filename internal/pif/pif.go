// Package pif implements Proactive Instruction Fetch (Ferdman et al.,
// MICRO 2011), the state-of-the-art per-core stream-based instruction
// prefetcher the paper compares against (Section 5.1).
//
// Each core owns a private history: a circular buffer of spatial region
// records built from its own retire-order instruction cache accesses, an
// index table from trigger addresses to history positions, and a stream
// address buffer file that replays streams and issues prefetches.
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

	"shift/internal/history"
	"shift/internal/prefetch"
	"shift/internal/trace"
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

// PIF is one core's prefetcher instance.
type PIF struct {
	cfg     Config
	builder *history.Builder
	buf     *history.Buffer
	index   *history.IndexTable
	sab     *history.SAB

	stats prefetch.Stats
	out   []prefetch.Request
	tmp   []history.Region
	blks  []trace.BlockAddr
}

// New builds a per-core PIF.
func New(cfg Config) (*PIF, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &PIF{cfg: cfg}
	p.builder = history.MustNewBuilder(cfg.SAB.Span)
	p.buf = history.MustNewBuffer(cfg.HistEntries)
	p.index = history.MustNewIndexTable(cfg.IndexEntries, cfg.IndexAssoc)
	p.sab = history.MustNewSAB(cfg.SAB)
	return p, nil
}

// Release hands the history and index storage back for the next New of
// the same sizes (see history.Buffer.Release). The caller must not use
// p again.
func (p *PIF) Release() {
	p.buf.Release()
	p.index.Release()
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
func (p *PIF) Name() string { return p.cfg.Name() }

// PrefetchStats implements prefetch.StatsReporter.
func (p *PIF) PrefetchStats() prefetch.Stats { return p.stats }

// OnAccess implements prefetch.Prefetcher: replay (advance or allocate a
// stream) and record (append to the private history).
func (p *PIF) OnAccess(a prefetch.Access) []prefetch.Request {
	p.out = p.out[:0]
	p.stats.Accesses++
	if !a.Hit {
		p.stats.Misses++
	}

	// Replay: advance the covering stream, if any.
	si, needed, covered := p.sab.Advance(a.Block)
	if covered {
		p.stats.CoveredAccesses++
		if !a.Hit {
			p.stats.CoveredMisses++
		}
		if needed > 0 {
			p.readAhead(si, needed)
		}
		p.emitWindow(si, a.Block)
	} else if !a.Hit {
		// New stream: look up the most recent occurrence of the missed
		// block as a trigger.
		if pos, ok := p.index.Lookup(a.Block); ok && p.buf.Valid(pos) {
			si := p.sab.Alloc()
			p.stats.StreamAllocs++
			recs, next := p.buf.ReadSeq(p.tmp[:0], pos, p.cfg.SAB.Lookahead)
			p.tmp = recs // retain the grown backing array across calls
			p.sab.FillRegions(si, recs, next)
			p.emitWindow(si, a.Block)
		}
	}

	// Record: PIF records every core's own access stream.
	if rec, done := p.builder.Add(a.Block); done {
		p.WarmRecord(rec)
	}
	return p.out
}

// WarmNeeds implements prefetch.Warmer: PIF compacts every access.
func (p *PIF) WarmNeeds() prefetch.WarmNeed { return prefetch.WarmRecords }

// WarmAccess implements prefetch.Warmer: during functional warming only
// the recording side of OnAccess runs — the core keeps compacting its
// access stream into history records and index updates, while replay
// state (the SAB file) and prefetch issue are skipped. PIF records the
// full access stream, which is a property of the program alone, so the
// warmed history is identical to what detailed stepping would build.
func (p *PIF) WarmAccess(blk trace.BlockAddr, _ bool) {
	if rec, done := p.builder.Add(blk); done {
		p.WarmRecord(rec)
	}
}

// WarmBuilder implements prefetch.RecordWarmer.
func (p *PIF) WarmBuilder() *history.Builder { return p.builder }

// WarmRecord implements prefetch.RecordWarmer: the record joins the
// private history and its trigger's index entry points at it.
func (p *PIF) WarmRecord(rec history.Region) {
	pos := p.buf.Append(rec)
	p.index.Update(rec.Trigger, pos)
	p.stats.RecordsWritten++
	p.stats.IndexUpdates++
}

// History exposes the private history buffer (read-only use: the
// functional-vs-detailed warm-state differential tests compare history
// contents across stepping modes).
func (p *PIF) History() *history.Buffer { return p.buf }

// readAhead tops stream si up with `needed` records.
func (p *PIF) readAhead(si, needed int) {
	pos := p.sab.NextPos(si)
	if !p.buf.Valid(pos) {
		return
	}
	recs, next := p.buf.ReadSeq(p.tmp[:0], pos, needed)
	p.tmp = recs
	if len(recs) == 0 {
		return
	}
	p.sab.FillRegions(si, recs, next)
}

// emitWindow issues prefetches for the stream's un-issued records inside
// the lookahead window, skipping the block being fetched right now.
func (p *PIF) emitWindow(si int, current trace.BlockAddr) {
	p.blks = p.sab.TakePrefetchBlocks(si, current, p.blks[:0])
	for _, b := range p.blks {
		p.out = append(p.out, prefetch.Request{Block: b})
	}
}

// StorageBits returns the per-core history storage cost in bits
// (Section 5.1's math: 41-bit records, 49-bit index entries at span 8).
func (c Config) StorageBits() int64 {
	recordBits := int64(history.BitsPerRecord(c.SAB.Span))
	indexBits := int64(trace.BlockAddrBits + 15) // tag + history pointer
	return int64(c.HistEntries)*recordBits + int64(c.IndexEntries)*indexBits
}

var (
	_ prefetch.Prefetcher    = (*PIF)(nil)
	_ prefetch.StatsReporter = (*PIF)(nil)
	_ prefetch.RecordWarmer  = (*PIF)(nil)
)
