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
// Like PIF, a TIFS is SHIFT's replay engine over a private history
// (core.Private) and differs from PIF only in its recording policy:
// plain hits are counted and never replayed; a miss, or the first use of
// a prefetched block, is replayed and then written at once as one
// single-block record; functional warming records the L1-I misses.
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

	"shift/internal/core"
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

// TIFS is one core's prefetcher: SHIFT's replay engine over a private
// history of single-block miss records. It keeps only its recording
// policy; the replayer is a field, not embedded, so TIFS is a
// prefetch.Warmer of misses and never a prefetch.RecordWarmer.
type TIFS struct {
	h    core.Private
	hits int64 // plain hits: counted, never replayed or recorded
}

// New builds a per-core TIFS.
func New(cfg Config) (*TIFS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h, err := core.NewPrivate(cfg.HistEntries, cfg.IndexEntries, cfg.IndexAssoc, cfg.SAB)
	if err != nil {
		return nil, err
	}
	return &TIFS{h: h}, nil
}

// Release hands the history and index storage back for the next New of
// the same sizes (see history.Buffer.Release). The caller must not use
// t again.
func (t *TIFS) Release() { t.h.Release() }

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
func (t *TIFS) PrefetchStats() prefetch.Stats {
	s := t.h.PrefetchStats()
	s.Accesses += t.hits
	return s
}

// OnAccess implements prefetch.Prefetcher. Plain hits are invisible to a
// miss-stream prefetcher. A miss, or the first use of a prefetched block
// (which would have been a miss without the prefetcher), belongs to the
// miss stream: it is replayed (only a miss starts a stream), then
// recorded as one single-block record.
func (t *TIFS) OnAccess(a prefetch.Access) []prefetch.Request {
	if a.Hit && !a.WasPrefetch {
		t.hits++
		return nil
	}
	out := t.h.Replay(a)
	t.h.WarmRecord(history.Region{Trigger: a.Block})
	return out
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
	if !l1Hit {
		t.h.WarmRecord(history.Region{Trigger: blk})
	}
}

// History exposes the private miss-history buffer (read-only use: the
// functional-vs-detailed warm-state differential tests compare history
// contents across stepping modes).
func (t *TIFS) History() *history.Buffer { return t.h.History() }

var (
	_ prefetch.Prefetcher    = (*TIFS)(nil)
	_ prefetch.StatsReporter = (*TIFS)(nil)
	_ prefetch.Warmer        = (*TIFS)(nil)
)
