package core

import (
	"shift/internal/history"
	"shift/internal/prefetch"
	"shift/internal/trace"
)

// Replayer is the per-core SHIFT logic: a stream address buffer file plus
// the "simple logic to read instruction streams from the shared history
// buffer and issue prefetch requests" (Section 4). It implements
// prefetch.Prefetcher. Over a Private history it is also PIF's and
// TIFS's replay engine.
type Replayer struct {
	sh     *SharedHistory
	coreID int
	sab    *history.SAB

	stats prefetch.Stats
	out   []prefetch.Request
	tmp   []history.Region
	blks  []trace.BlockAddr
}

// CorePrefetcher creates the per-core replay logic for coreID. The
// instance records into the shared history if coreID is the generator.
func (sh *SharedHistory) CorePrefetcher(coreID int) *Replayer {
	return &Replayer{
		sh:     sh,
		coreID: coreID,
		sab:    history.MustNewSAB(sh.cfg.SAB),
	}
}

// Private is one core's replay engine over a history nobody shares: the
// Dedicated variant with core 0 as its generator and its only reader,
// and an index of explicit geometry. PIF records the core's access stream
// into it, TIFS its miss stream.
type Private struct{ Replayer }

// NewPrivate builds a private history of histEntries records, indexed by
// an indexEntries-entry, indexAssoc-way table, replayed through sab.
func NewPrivate(histEntries, indexEntries, indexAssoc int, sab history.SABConfig) (Private, error) {
	sh, err := NewSharedHistory(Config{
		Variant:      Dedicated,
		HistEntries:  histEntries,
		SAB:          sab,
		IndexEntries: indexEntries,
		IndexAssoc:   indexAssoc,
	}, nil)
	if err != nil {
		return Private{}, err
	}
	return Private{Replayer{sh: sh, coreID: 0, sab: history.MustNewSAB(sab)}}, nil
}

// Release hands the history and index storage back for the next
// NewPrivate of the same sizes (see SharedHistory.Release). The caller
// must not use p again.
func (p *Private) Release() { p.sh.Release() }

// History exposes the private history buffer (read-only use: the
// functional-vs-detailed warm-state differential tests compare history
// contents across stepping modes).
func (p *Private) History() *history.Buffer { return p.sh.History() }

// Name implements prefetch.Prefetcher.
func (r *Replayer) Name() string { return r.sh.cfg.Variant.String() }

// PrefetchStats implements prefetch.StatsReporter.
func (r *Replayer) PrefetchStats() prefetch.Stats { return r.stats }

// IsGenerator reports whether this core currently records the shared
// history (the role may rotate; see SharedHistory.SetGenerator).
func (r *Replayer) IsGenerator() bool { return r.coreID == r.sh.generator }

// OnAccess implements prefetch.Prefetcher: Replay, then record the
// access (WarmAccess).
func (r *Replayer) OnAccess(a prefetch.Access) []prefetch.Request {
	out := r.Replay(a)
	r.WarmAccess(a.Block, a.Hit)
	return out
}

// Replay is the reading side of OnAccess: it advances the stream covering
// a.Block, reading ahead as the stream drains, or on a miss (any uncovered
// access under AllocOnAccess) starts a stream from the block's most recent
// occurrence in the history, and returns the window's prefetches. It
// records nothing, so a design that records something other than the
// access stream (TIFS's miss stream) replays through it and records
// itself.
func (r *Replayer) Replay(a prefetch.Access) []prefetch.Request {
	r.out = r.out[:0]
	r.stats.Accesses++
	if !a.Hit {
		r.stats.Misses++
	}

	// Advance the covering stream.
	si, needed, covered := r.sab.Advance(a.Block)
	if covered {
		r.stats.CoveredAccesses++
		if !a.Hit {
			r.stats.CoveredMisses++
		}
		var delay int64
		if needed > 0 {
			delay = r.readAhead(si, needed)
		}
		r.emitWindow(si, a.Block, delay)
	} else if !a.Hit || r.sh.cfg.AllocOnAccess {
		// Start a new stream from the most recent occurrence of this
		// block as a trigger in the *shared* history.
		if pos, ok := r.sh.lookup(r.coreID, a.Block); ok {
			r.allocate(pos, a.Block)
		}
	}
	return r.out
}

// WarmNeeds implements prefetch.Warmer: the generator core compacts the
// full access stream into the shared history, every other core keeps
// nothing that functional stepping warms.
func (r *Replayer) WarmNeeds() prefetch.WarmNeed {
	if r.IsGenerator() {
		return prefetch.WarmRecords
	}
	return prefetch.WarmNone
}

// WarmAccess implements prefetch.Warmer: during functional warming only
// the recording side of OnAccess runs — the generator core keeps
// appending region records to the shared history (with the variant's
// index updates and CBB flushes), while replay state (the SAB file) and
// prefetch issue are skipped. Non-generator cores do nothing: SHIFT's
// only slow-warming per-workload state is the shared history itself.
func (r *Replayer) WarmAccess(blk trace.BlockAddr, _ bool) {
	if !r.IsGenerator() {
		return
	}
	if rec, done := r.sh.builder.Add(blk); done {
		r.WarmRecord(rec)
	}
}

// WarmBuilder implements prefetch.RecordWarmer: the shared history's
// builder, which compacts the generator core's accesses and restarts when
// the role rotates (see SharedHistory.SetGenerator).
func (r *Replayer) WarmBuilder() *history.Builder { return r.sh.builder }

// WarmRecord implements prefetch.RecordWarmer: the generator core writes
// the record to the shared history, with its index update and CBB flush.
func (r *Replayer) WarmRecord(rec history.Region) {
	r.sh.append(r.coreID, rec)
	r.stats.RecordsWritten++
	r.stats.IndexUpdates++
}

// allocate claims a stream, performs the initial history read, and emits
// the first prefetch window.
func (r *Replayer) allocate(pos uint64, current trace.BlockAddr) {
	si := r.sab.Alloc()
	r.stats.StreamAllocs++
	delay := r.fill(si, pos, r.sh.cfg.SAB.Lookahead)
	r.emitWindow(si, current, delay)
}

// readAhead tops stream si up by `needed` records, returning the history
// access latency incurred.
func (r *Replayer) readAhead(si, needed int) int64 {
	pos := r.sab.NextPos(si)
	if !r.sh.buf.Valid(pos) {
		return 0
	}
	return r.fill(si, pos, needed)
}

// fill reads `want` records starting at pos into stream si, modelling the
// storage variant's access granularity and latency. It returns the
// accumulated history read latency (zero for dedicated storage).
func (r *Replayer) fill(si int, pos uint64, want int) int64 {
	switch r.sh.cfg.Variant {
	case Dedicated:
		recs, next := r.sh.buf.ReadSeq(r.tmp[:0], pos, want)
		r.tmp = recs // retain the grown backing array across calls
		if len(recs) == 0 {
			return 0
		}
		r.sab.FillRegions(si, recs, next)
		return 0

	case Virtualized:
		// History is read at cache-block granularity: fetch the block
		// containing pos (records at positions >= pos within it), and at
		// most one more block if the lookahead demands it. Each block
		// read is an LLC round trip whose latency delays the resulting
		// prefetches (Section 4.2 replay steps 2-4). All records of a
		// fetched block enter the stream queue; prefetch issue is still
		// paced by the SAB's lookahead window.
		rpb := uint64(r.sh.cfg.RecordsPerBlock())
		var delay int64
		got := 0
		for reads := 0; got < want && reads < 2; reads++ {
			if !r.sh.buf.Valid(pos) {
				break
			}
			blockEnd := pos - pos%rpb + rpb
			n := int(blockEnd - pos)
			recs, next := r.sh.buf.ReadSeq(r.tmp[:0], pos, n)
			r.tmp = recs
			if len(recs) == 0 {
				break
			}
			delay += r.sh.backend.ReadHistoryBlock(r.coreID, r.sh.hbBlockFor(pos))
			r.stats.HistoryReads++
			r.sab.FillRegions(si, recs, next)
			got += len(recs)
			pos = next
		}
		return delay
	}
	return 0
}

// emitWindow issues prefetch requests for the stream's un-issued records
// inside the lookahead window, skipping the block being demand-fetched.
func (r *Replayer) emitWindow(si int, current trace.BlockAddr, delay int64) {
	r.blks = r.sab.TakePrefetchBlocks(si, current, r.blks[:0])
	for _, b := range r.blks {
		r.out = append(r.out, prefetch.Request{Block: b, Delay: delay})
	}
}

var (
	_ prefetch.Prefetcher    = (*Replayer)(nil)
	_ prefetch.StatsReporter = (*Replayer)(nil)
	_ prefetch.RecordWarmer  = (*Replayer)(nil)
)
