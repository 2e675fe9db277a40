package core

import (
	"shift/internal/history"
	"shift/internal/prefetch"
	"shift/internal/trace"
)

// Replayer is the per-core SHIFT logic: a stream address buffer file plus
// the "simple logic to read instruction streams from the shared history
// buffer and issue prefetch requests" (Section 4). It implements
// prefetch.Prefetcher. Over a history of one core it is also PIF's
// replay engine, and under a missRecorder TIFS's.
type Replayer struct {
	sh     *SharedHistory
	coreID int
	sab    *history.SAB

	stats prefetch.Stats
	out   []prefetch.Request
	tmp   []history.Region
	blks  []trace.BlockAddr
}

// CorePrefetcher creates the per-core replay logic for coreID: a
// *Replayer, which records into the history if coreID is the generator,
// or, under RecordMisses, a missRecorder around one.
func (sh *SharedHistory) CorePrefetcher(coreID int) prefetch.Prefetcher {
	r := Replayer{sh: sh, coreID: coreID, sab: history.MustNewSAB(sh.cfg.SAB)}
	if sh.cfg.RecordMisses {
		return &missRecorder{r: r}
	}
	return &r
}

// PrefetchStats implements prefetch.StatsReporter.
func (r *Replayer) PrefetchStats() prefetch.Stats { return r.stats }

// isGenerator reports whether this core currently records the shared
// history (the role may rotate; see SharedHistory.SetGenerator).
func (r *Replayer) isGenerator() bool { return r.coreID == r.sh.generator }

// OnAccess implements prefetch.Prefetcher: Replay, then record the
// access (WarmAccess).
func (r *Replayer) OnAccess(a prefetch.Access) []prefetch.Request {
	out := r.replay(a)
	r.WarmAccess(a.Block, a.Hit)
	return out
}

// replay is the reading side of OnAccess: it advances the stream covering
// a.Block, reading ahead as the stream drains, or on a miss (any uncovered
// access under AllocOnAccess) starts a stream from the block's most recent
// occurrence in the history, and returns the window's prefetches. It
// records nothing, so a design that records something other than the
// access stream (TIFS's miss stream; see missRecorder) replays through it
// and records itself.
func (r *Replayer) replay(a prefetch.Access) []prefetch.Request {
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
	if r.isGenerator() {
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
	if !r.isGenerator() {
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
		rpb := uint64(r.sh.cfg.recordsPerBlock())
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

// missRecorder is TIFS's recording policy over the replay engine: the
// history holds the generator's L1-I miss stream, one single-block record
// a miss, and a miss replays the misses that followed its most recent
// occurrence. Plain hits are counted and never replayed or recorded; a
// miss, or the first use of a prefetched block (a miss but for the
// prefetcher), is replayed, then recorded. The replayer is a field, not
// embedded, so a missRecorder is a prefetch.Warmer of the misses and never
// a prefetch.RecordWarmer: the access stream's region records are not its
// history.
//
// The paper's Section 2.2 explains why PIF superseded TIFS: miss streams
// depend on cache content, which changes over time (and under prefetching
// itself), while access streams are a property of the program alone.
type missRecorder struct {
	r    Replayer
	hits int64 // plain hits: counted, never replayed or recorded
}

// PrefetchStats implements prefetch.StatsReporter.
func (m *missRecorder) PrefetchStats() prefetch.Stats {
	s := m.r.stats
	s.Accesses += m.hits
	return s
}

// OnAccess implements prefetch.Prefetcher: a plain hit is counted, any
// other access replayed and recorded as a miss.
func (m *missRecorder) OnAccess(a prefetch.Access) []prefetch.Request {
	if a.Hit && !a.WasPrefetch {
		m.hits++
		return nil
	}
	out := m.r.replay(a)
	m.WarmAccess(a.Block, false)
	return out
}

// WarmNeeds implements prefetch.Warmer: the generator records the misses.
func (m *missRecorder) WarmNeeds() prefetch.WarmNeed {
	if m.r.isGenerator() {
		return prefetch.WarmMisses
	}
	return prefetch.WarmNone
}

// WarmAccess implements prefetch.Warmer: the generator writes an L1-I
// miss as one single-block record. Functional warming models the L1-I but
// not the prefetch buffer, so the warmed history follows the raw L1 miss
// stream — what detailed stepping records exactly when no prefetch
// perturbs coverage, as in prediction mode.
func (m *missRecorder) WarmAccess(blk trace.BlockAddr, l1Hit bool) {
	if !l1Hit && m.r.isGenerator() {
		m.r.WarmRecord(history.Region{Trigger: blk})
	}
}

var (
	_ prefetch.Prefetcher    = (*missRecorder)(nil)
	_ prefetch.StatsReporter = (*missRecorder)(nil)
	_ prefetch.Warmer        = (*missRecorder)(nil)
)
