// Package tifs implements Temporal Instruction Fetch Streaming (Ferdman
// et al., MICRO 2008), the stream-based instruction prefetcher that PIF
// and SHIFT build on (paper Section 7: "TIFS records streams of
// discontinuities in its history, enhancing the lookahead of
// discontinuity prefetching").
//
// TIFS records each core's L1-I *miss* stream — not the full access
// stream — into a per-core circular history indexed by miss address. On a
// miss, the most recent occurrence of that miss address is located and
// the misses that followed it are prefetched.
//
// The paper's Section 2.2 explains why PIF superseded it: miss streams
// depend on cache content, which changes over time (and changes under
// prefetching itself), while access streams are a property of the
// program alone. This package exists so that the repository contains the
// full lineage (next-line → TIFS → PIF → SHIFT) and so the
// access-vs-miss-stream design choice can be measured; it is not part of
// the paper's evaluated design set.
package tifs

import (
	"fmt"

	"shift/internal/history"
	"shift/internal/prefetch"
	"shift/internal/trace"
)

// Config sizes one core's TIFS.
type Config struct {
	// HistEntries is the per-core miss-history capacity in records
	// (each record is a single miss block address).
	HistEntries int
	// IndexEntries and IndexAssoc size the per-core index table.
	IndexEntries, IndexAssoc int
	// SAB configures the stream address buffers (span is irrelevant for
	// single-block records but kept for the shared machinery).
	SAB history.SABConfig
}

// DefaultConfig mirrors PIF_32K's aggregate budget: 32K single-address
// records and an 8K-entry index.
func DefaultConfig() Config {
	sab := history.DefaultSABConfig()
	return Config{HistEntries: 32768, IndexEntries: 8192, IndexAssoc: 4, SAB: sab}
}

// Validate reports the first problem with c, or nil.
func (c Config) Validate() error {
	if c.HistEntries <= 0 {
		return fmt.Errorf("tifs: HistEntries %d <= 0", c.HistEntries)
	}
	if c.IndexEntries <= 0 || c.IndexAssoc <= 0 || c.IndexEntries%c.IndexAssoc != 0 {
		return fmt.Errorf("tifs: bad index table %d/%d", c.IndexEntries, c.IndexAssoc)
	}
	return c.SAB.Validate()
}

// TIFS is one core's prefetcher instance.
type TIFS struct {
	cfg   Config
	buf   *history.Buffer
	index *history.IndexTable
	sab   *history.SAB

	stats prefetch.Stats
	out   []prefetch.Request
	tmp   []history.Region
	blks  []trace.BlockAddr
}

// New builds a per-core TIFS.
func New(cfg Config) (*TIFS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &TIFS{
		cfg:   cfg,
		buf:   history.MustNewBuffer(cfg.HistEntries),
		index: history.MustNewIndexTable(cfg.IndexEntries, cfg.IndexAssoc),
		sab:   history.MustNewSAB(cfg.SAB),
	}, nil
}

// Release hands the history and index storage back for the next New of
// the same sizes (see history.Buffer.Release). The caller must not use
// t again.
func (t *TIFS) Release() {
	t.buf.Release()
	t.index.Release()
}

// MustNew panics on config errors.
func MustNew(cfg Config) *TIFS {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements prefetch.Prefetcher.
func (t *TIFS) Name() string { return "TIFS" }

// PrefetchStats implements prefetch.StatsReporter.
func (t *TIFS) PrefetchStats() prefetch.Stats { return t.stats }

// OnAccess implements prefetch.Prefetcher. Only misses are recorded and
// only misses start or advance streams — the defining property of
// miss-stream prefetching.
func (t *TIFS) OnAccess(a prefetch.Access) []prefetch.Request {
	t.out = t.out[:0]
	t.stats.Accesses++
	if a.Hit && !a.WasPrefetch {
		// Plain hits are invisible to a miss-stream prefetcher.
		return nil
	}
	// A miss, or the first use of a prefetched block (which would have
	// been a miss without the prefetcher): both belong to the miss
	// stream.
	if !a.Hit {
		t.stats.Misses++
	}

	si, needed, covered := t.sab.Advance(a.Block)
	if covered {
		t.stats.CoveredAccesses++
		if !a.Hit {
			t.stats.CoveredMisses++
		}
		if needed > 0 {
			t.readAhead(si, needed)
		}
		t.emitWindow(si, a.Block)
	} else if !a.Hit {
		if pos, ok := t.index.Lookup(a.Block); ok && t.buf.Valid(pos) {
			si := t.sab.Alloc()
			t.stats.StreamAllocs++
			recs, next := t.buf.ReadSeq(t.tmp[:0], pos, t.cfg.SAB.Lookahead)
			t.tmp = recs // retain the grown backing array across calls
			t.sab.FillRegions(si, recs, next)
			t.emitWindow(si, a.Block)
		}
	}

	// Record the miss stream: one single-block record per miss.
	if !a.Hit || a.WasPrefetch {
		pos := t.buf.Append(history.Region{Trigger: a.Block})
		t.index.Update(a.Block, pos)
		t.stats.RecordsWritten++
		t.stats.IndexUpdates++
	}
	return t.out
}

// WarmNeeds implements prefetch.Warmer: TIFS records the miss stream.
func (t *TIFS) WarmNeeds() prefetch.WarmNeed { return prefetch.WarmMisses }

// WarmAccess implements prefetch.Warmer: during functional warming only
// the recording side of OnAccess runs. TIFS records the *miss* stream,
// which depends on cache content; functional warming models the L1-I
// but not the prefetch buffer, so the warmed history follows the raw L1
// miss stream (identical to detailed stepping exactly when no
// prefetches perturb coverage, e.g. in prediction mode — the
// access-vs-miss-stream fragility the paper's Section 2.2 describes).
func (t *TIFS) WarmAccess(blk trace.BlockAddr, l1Hit bool) {
	if l1Hit {
		return
	}
	pos := t.buf.Append(history.Region{Trigger: blk})
	t.index.Update(blk, pos)
	t.stats.RecordsWritten++
	t.stats.IndexUpdates++
}

// History exposes the private miss-history buffer (read-only use: the
// functional-vs-detailed warm-state differential tests compare history
// contents across stepping modes).
func (t *TIFS) History() *history.Buffer { return t.buf }

// readAhead tops stream si up with `needed` records.
func (t *TIFS) readAhead(si, needed int) {
	pos := t.sab.NextPos(si)
	if !t.buf.Valid(pos) {
		return
	}
	recs, next := t.buf.ReadSeq(t.tmp[:0], pos, needed)
	t.tmp = recs
	if len(recs) == 0 {
		return
	}
	t.sab.FillRegions(si, recs, next)
}

// emitWindow issues prefetches for un-issued records in the lookahead
// window. TIFS records are single miss addresses (empty vectors), so
// the fused block emission yields exactly the triggers.
func (t *TIFS) emitWindow(si int, current trace.BlockAddr) {
	t.blks = t.sab.TakePrefetchBlocks(si, current, t.blks[:0])
	for _, b := range t.blks {
		t.out = append(t.out, prefetch.Request{Block: b})
	}
}

var (
	_ prefetch.Prefetcher    = (*TIFS)(nil)
	_ prefetch.StatsReporter = (*TIFS)(nil)
	_ prefetch.Warmer        = (*TIFS)(nil)
)
