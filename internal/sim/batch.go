package sim

import (
	"fmt"
	"reflect"
	"slices"

	"shift/internal/cache"
	"shift/internal/freelist"
	"shift/internal/history"
	"shift/internal/noc"
	"shift/internal/trace"
)

// batchBlockRounds is the lockstep granularity of RunBatch: each member
// system runs up to this many rounds back to back before the next member
// takes the same block (see cutBlocks). Coarse blocks keep one system's
// simulation state hot in cache for cores×rounds records at a time
// (instead of thrashing K working sets against each other every record)
// and bound the lead log, which holds one block.
const batchBlockRounds = 8192

// Lead-log word layout, low to high: the L1-I hit bit, the mispredict bit
// (meaningful only in detailed stepping), the 3-bit trace.Kind, the 16-bit
// retire count, the 34-bit block address and, on an L1-I miss, the way of
// the lead's instruction cache the block went into (see cache.ICache) in
// the 9 bits that remain — room for every way of an L1-I Config.validate
// accepts.
const (
	logHit         uint64 = 1 << 0
	logMispredict  uint64 = 1 << 1
	logKindShift          = 2
	logInstrsShift        = 5
	logBlockShift         = 21
	logWayShift           = 55
	logMaxWays            = 1 << (64 - logWayShift)
)

// packLog packs one record and what the lead decided about it.
func packLog(rec trace.Record, mispredict, l1Hit bool, way int) uint64 {
	w := uint64(way)<<logWayShift | uint64(rec.Block)<<logBlockShift |
		uint64(rec.Instrs)<<logInstrsShift | uint64(rec.Kind)<<logKindShift
	if mispredict {
		w |= logMispredict
	}
	if l1Hit {
		w |= logHit
	}
	return w
}

// logWay is the L1-I way a miss word names.
func logWay(w uint64) int { return int(w >> logWayShift) }

// logBlock is the block address of a log word's record.
func logBlock(w uint64) trace.BlockAddr {
	return trace.BlockAddr(w >> logBlockShift & uint64(trace.MaxBlockAddr))
}

// unpackLog recovers the record of a log word.
func unpackLog(w uint64) trace.Record {
	return trace.Record{
		Block:  logBlock(w),
		Instrs: uint16(w >> logInstrsShift),
		Kind:   trace.Kind(w >> logKindShift & 7),
	}
}

// Probe-entry layout, low to high: the 34-bit block address of an L1-I
// miss that warms the LLC and the offset of the miss in its functional
// stretch (a stretch is at most batchBlockRounds records).

// packProbe packs the probe of block blk, missed at offset at of its
// stretch.
func packProbe(blk trace.BlockAddr, at int) uint64 {
	return uint64(blk) | uint64(at)<<trace.BlockAddrBits
}

// unpackProbe recovers the block and the offset of a probe entry.
func unpackProbe(w uint64) (trace.BlockAddr, int) {
	return trace.BlockAddr(w & uint64(trace.MaxBlockAddr)), int(w >> trace.BlockAddrBits)
}

// Region-word layout, low to high: a completed region record's 34-bit
// trigger and 15-bit vector, and the 13-bit offset in its functional
// stretch of the access that completed it.
const (
	regionVecShift = trace.BlockAddrBits
	regionAtShift  = regionVecShift + history.MaxRegionSpan - 1
)

// packRegion packs record r, completed at offset at of its stretch.
func packRegion(r history.Region, at int) uint64 {
	return uint64(r.Trigger) | uint64(r.Vec)<<regionVecShift | uint64(at)<<regionAtShift
}

// unpackRegion recovers the record of a region word and its offset.
func unpackRegion(w uint64) (history.Region, int) {
	r := history.Region{
		Trigger: trace.BlockAddr(w & uint64(trace.MaxBlockAddr)),
		Vec:     uint16(w >> regionVecShift & (1<<(history.MaxRegionSpan-1) - 1)),
	}
	return r, int(w >> regionAtShift)
}

// leadLog is what the lead of a RunBatch publishes, one lockstep block
// at a time, for its followers to read in place of a stream — and all a
// follower ever sees of the lead: it holds no pointer into the lead's
// System, which in a schedule of one block is gone before the first
// follower is built.
//
// What it holds of a block depends on the kind of piece:
//
//   - A detailed piece's records are words, in the order the lead stepped
//     them (round-robin over the cores). Followers step in the lead's
//     order, so they are written once and read once per follower, front
//     to back.
//   - A functional piece publishes, per core in stepping order, what a
//     follower reads of it: a probe list and, when the log carries them, a
//     region list. Its records go into words too (core after core) only
//     when stretches is set — when some follower walks them (see
//     walksStretches); otherwise the lead writes them into a buffer of its
//     own, as a standalone System does, and the log is sized by the
//     block's detailed rounds alone.
//
// marks holds the block's interval marks: at every beginInterval/endInterval the
// lead appends its shared-facet counters, one coreMark per core, and its
// background data-traffic totals, one trafficMark per mark, to traffic;
// a follower reaching the same boundary takes the facets it replays from
// there (see System.shareMark).
//
// probes holds the block's LLC probe lists, one per core per functional
// piece in stepping order: a count, then that many entries, each an L1-I
// miss at which functional stepping warms the LLC (every one near a
// detailed interval, every llcFarStride-th far from it) with its offset in
// the core's stretch (see packProbe). Which misses those are follows from
// the L1-I outcome alone, so the lead decides it once, and a follower with
// nothing else to do in a stretch walks the list instead of the records
// (see System.consume).
//
// builders, regions and data carry the compaction of each core's stream
// into spatial region records, for the members whose Warmer compacts (see
// prefetch.RecordWarmer). builders[c] is a history.Builder at
// history.DefaultRegionSpan that the lead advances on every record of core
// c it steps, detailed or functional. For every core's functional stretch
// it appends one word per record the stretch completes (see packRegion)
// to data and the stretch's regionList to regions, in the probe lists'
// order. A member whose builder stands where the log's stood at a
// stretch's start applies the stretch's records instead of compacting its
// words again (see System.consume). builders and regions are nil unless
// the schedule has a functional piece and some follower compacts at that
// span (see newBatch).
//
// mirrors are the lead's instruction caches — the log's, so that they
// outlive a lead that is gone after one block: what a follower mirrors
// miss by miss in detailed stepping and copies the tags of after a
// functional stretch. cfg is the lead's configuration, against which a
// follower decides whether it replays the data traffic.
//
// A batch takes its log off a free list of logs of its word count and a
// successful walk hands it back, as System.release does the member's
// tables; a batch that fails leaves its log to the collector.
type leadLog struct {
	words     []uint64
	marks     []coreMark
	traffic   []trafficMark
	probes    []uint64
	data      []uint64
	builders  []history.Builder
	regions   []regionList
	mirrors   []*cache.ICache
	stretches bool
	cfg       Config
}

// openProbes starts a probe list; the lead appends the offsets to
// lg.probes and closes the list with closeProbes(at).
func (lg *leadLog) openProbes() (at int) {
	lg.probes = append(lg.probes, 0)
	return len(lg.probes) - 1
}

// closeProbes writes the count of the list opened at index at and returns
// the list.
func (lg *leadLog) closeProbes(at int) []uint64 {
	list := lg.probes[at+1:]
	lg.probes[at] = uint64(len(list))
	return list
}

// probesAt returns the list that starts at index at and the index of the
// one behind it.
func (lg *leadLog) probesAt(at int) (list []uint64, next int) {
	next = at + 1 + int(lg.probes[at])
	return lg.probes[at+1 : next], next
}

// regionList is one core's region list of a functional stretch: the log
// builder's state before and after the stretch, and the records it
// completed in between, a run of data. The zero list — a
// System without region lists — has a start state no member's builder is
// in.
type regionList struct {
	start, end history.Builder
	recs       []uint64
}

// coreMark is one core's entry of an interval mark: the counters of the
// branch predictor, which a follower does not own, as the lead read them
// at the boundary.
type coreMark struct{ bpPred, bpMiss int64 }

// trafficMark is the mesh-wide entry of an interval mark: the lead's
// background data-traffic totals (noc.DemandData messages and hops) at the
// boundary, which a follower that would draw the lead's traffic reports
// instead of drawing it.
type trafficMark struct{ msgs, hops int64 }

// shareMark is the batch side of a counter snapshot. The lead appends the
// snapshot's shared-facet counters to the log as the block's next interval
// mark; a follower takes the next mark and overwrites the predictor
// counters it has no structure to read from and, when it replays the data
// traffic, the data totals it never accounted.
func (s *System) shareMark(m *measurement) {
	lg, n := s.log, s.cfg.Cores
	if s.lead {
		for i := 0; i < n; i++ {
			lg.marks = append(lg.marks, coreMark{m.bpPred[i], m.bpMiss[i]})
		}
		lg.traffic = append(lg.traffic, trafficMark{m.traffic[noc.DemandData], m.hops[noc.DemandData]})
		return
	}
	for i, k := range lg.marks[s.markPos : s.markPos+n] {
		m.bpPred[i], m.bpMiss[i] = k.bpPred, k.bpMiss
	}
	if s.replayData {
		k := lg.traffic[s.markPos/n]
		m.traffic[noc.DemandData], m.hops[noc.DemandData] = k.msgs, k.hops
	}
	s.markPos += n
}

// piece is one stretch of the schedule a member steps without a pause: up
// to batchBlockRounds rounds of one segment (rounds is the piece's share of
// it), with begin and end marking the pieces that open and close a measured
// segment's interval. The pieces of a schedule are the same however many
// members walk it, which is what keeps functional stepping — core-major
// within a piece (see runRoundsFunctional) — in one global order standalone
// and batched.
type piece struct {
	segment
	begin, end bool
}

// cutBlocks lays a schedule out in lockstep blocks: consecutive pieces
// that one member steps, start to finish, before the next member takes the
// same block. A block holds as many pieces as fit the lead log —
// batchBlockRounds rounds — across segment boundaries, so a window that
// short is a single block; and it ends with a functional stretch, because a
// follower does not track the L1-I through functional pieces and takes the
// tags of the lead's, as they stand when the lead's block is done, before
// it steps in detail again (see batch.runBlock).
//
// report, when positive, cuts each measured segment into pieces of that
// many rounds instead, each an interval of its own: the reporting
// intervals of an exact run with a probe attached (see RunSpec.Probe). An
// exact run's results do not depend on where its pieces are cut; a sampled
// run's do, so its measured intervals are never cut.
func cutBlocks(segs []segment, report int64) [][]piece {
	var blocks [][]piece
	var open []piece
	var rounds int64
	for _, seg := range segs {
		step, each := int64(batchBlockRounds), seg.measured && report > 0
		if each {
			step = report
		}
		for off := int64(0); off < seg.rounds; off += step {
			p := piece{segment: seg, begin: seg.measured && (off == 0 || each)}
			p.rounds = min(seg.rounds-off, step)
			p.end = seg.measured && (off+p.rounds == seg.rounds || each)
			if n := len(open); n > 0 && (rounds+p.rounds > batchBlockRounds || open[n-1].functional && !p.functional) {
				blocks = append(blocks, open)
				open, rounds = nil, 0
			}
			open = append(open, p)
			rounds += p.rounds
		}
	}
	if open != nil {
		blocks = append(blocks, open)
	}
	return blocks
}

// blockRounds is the length of a block in lockstep rounds.
func blockRounds(blk []piece) int64 {
	var n int64
	for _, p := range blk {
		n += p.rounds
	}
	return n
}

// batch is the unit of execution, and the one owner of every System: the
// members that consume one record stream — the lead (member 0) and the
// followers that read its log, none for a single run — and the blocks all
// of them walk. systems[m] is member m's System while it is alive: walk
// builds it from specs[m] when the member enters its first block and,
// after its last, extracts out[m] and hands its tables back.
type batch struct {
	specs   []RunSpec
	out     []Result
	systems []*System
	blocks  [][]piece
	log     *leadLog
}

// newBatch validates the specs and lays out the schedule; walk builds the
// members. Followers are what the lead log exists for, so a batch of one
// has none: its one member is a standalone System.
func newBatch(specs []RunSpec) (*batch, error) {
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			// A batch of one is a Run: there is no other member to tell the
			// failing one from, and the caller wants the member's own error.
			if len(specs) > 1 {
				err = fmt.Errorf("sim: batch spec %d: %w", i, err)
			}
			return nil, err
		}
	}
	if err := checkStreamCompatible(specs); err != nil {
		return nil, err
	}
	policy := specs[0].Sampling
	var report int64
	if !policy.Enabled() && slices.ContainsFunc(specs, func(s RunSpec) bool { return s.Probe != nil }) {
		report = defaultIntervalRecords
	}
	b := &batch{
		specs:   specs,
		out:     make([]Result, len(specs)),
		systems: make([]*System, len(specs)),
		blocks:  cutBlocks(policy.segments(specs[0].WarmupRecords, specs[0].MeasureRecords), report),
	}
	if len(specs) > 1 {
		cfg := specs[0].systemConfig()
		stretches := slices.ContainsFunc(specs[1:], func(s RunSpec) bool { return walksStretches(s.Config.Prefetcher) })
		// The log holds one lockstep block: its records, or only those of
		// its detailed pieces when no follower walks a functional stretch.
		var words, functional int64
		for _, blk := range b.blocks {
			var n, f int64
			for _, p := range blk {
				if p.functional {
					f += p.rounds
				}
				if stretches || !p.functional {
					n += p.rounds
				}
			}
			words, functional = max(words, n), max(functional, f)
		}
		k := regionLists(specs, b.blocks)
		b.log = newLeadLog(cfg, int(words)*cfg.Cores, int(functional)*cfg.Cores, k > 0)
		b.log.stretches = stretches
		if k > 0 {
			b.log.builders = make([]history.Builder, cfg.Cores)
			for c := range b.log.builders {
				b.log.builders[c] = *history.MustNewBuilder(history.DefaultRegionSpan)
			}
			b.log.regions = make([]regionList, 0, k*cfg.Cores)
		}
		b.log.mirrors = make([]*cache.ICache, cfg.Cores)
		for c := range b.log.mirrors {
			var err error
			if b.log.mirrors[c], err = cache.NewICache(cfg.L1I); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// replaysData reports whether a follower of configuration cfg replays the
// background data traffic of a lead of configuration lc (see the
// System.log field doc): the draws are the lead's only with its seeds and
// with no miss elimination on either side (ElimProb consumes the same
// RNG, which would shift the draw sequence).
func replaysData(cfg, lc Config) bool {
	return cfg.ElimProb == 0 && lc.ElimProb == 0 && cfg.Seed == lc.Seed
}

// walksStretches reports whether a follower of design p walks the records
// of a functional stretch rather than the lists beside them (see
// System.consume): its Warmer asks for accesses the region lists do not
// serve — TIFS's misses, a region span other than the log builders', or
// the generator of an adaptive history, whose builder restarts when the
// role rotates. A follower's design is fixed when it is built, so this is
// decided once per batch from the specs.
func walksStretches(p PrefetcherSpec) bool {
	return p.Kind == KindHistory && (p.regionSpan() != history.DefaultRegionSpan || p.AdaptiveGenerator)
}

// freeLogs recycles lead logs between batches, one free list per size
// class of word count (see freelist).
var freeLogs = freelist.New[int, leadLog]("lead_log")

// newLeadLog returns a log of at least n words for a batch led by cfg
// whose blocks step up to f records functionally: one handed back by an
// earlier batch of that size class, if it has n words, or a new one. A
// new one has room for a probe, and, when it carries region lists, a
// region record, every other functional record — a whole stretch of
// misses and completed regions would outgrow them, once, by append.
func newLeadLog(cfg Config, n, f int, regions bool) *leadLog {
	lg := freeLogs.GetFit(freelist.SizeClass(n), func(lg *leadLog) bool { return len(lg.words) >= n })
	if lg == nil {
		lg = &leadLog{words: make([]uint64, n), probes: make([]uint64, 0, f/2)}
		if regions {
			lg.data = make([]uint64, 0, f/2)
		}
	}
	lg.cfg = cfg
	return lg
}

// release hands the log's instruction caches back to their free list and
// the log to freeLogs, keeping the arrays a log of its word count reuses
// — words, marks, probes and region data — and dropping the rest. Only a
// successful walk calls it; the log is unusable afterwards.
func (lg *leadLog) release() {
	for _, l1 := range lg.mirrors {
		l1.Release()
	}
	*lg = leadLog{words: lg.words, marks: lg.marks[:0], traffic: lg.traffic[:0], probes: lg.probes[:0], data: lg.data[:0]}
	freeLogs.Put(freelist.SizeClass(len(lg.words)), lg)
}

// regionLists is how many region lists a core's stretches take in the
// fullest block of a batch of specs over blocks — one per functional piece
// — or 0 when the lead publishes none: only functional pieces read them,
// and only a follower whose Warmer compacts at the log's span can use
// them.
func regionLists(specs []RunSpec, blocks [][]piece) int {
	if !slices.ContainsFunc(specs[1:], func(s RunSpec) bool {
		return s.Config.Prefetcher.regionSpan() == history.DefaultRegionSpan
	}) {
		return 0
	}
	most := 0
	for _, blk := range blocks {
		n := 0
		for _, p := range blk {
			if p.functional {
				n++
			}
		}
		most = max(most, n)
	}
	return most
}

// RunBatch executes several specs that consume the same trace stream on
// the same system in a single pass: every spec must agree on the
// workload(s), the warmup/measure window, the sampling policy and every
// field of Config but the per-cell ones — the design point (with its
// history sizes), core type, mode, miss elimination and seed, which are
// free to vary. Only the first member — the lead — opens and
// decodes the per-core record streams; it steps them exactly as a
// standalone Run would and publishes what it read and decided into the
// lead log, and every other member steps off that log in block-lockstep,
// so each member observes exactly the per-core record order of a
// standalone Run — results are bit-identical to running every spec
// through Run, record for record.
//
// Beyond the decoding, a follower replays whatever else is a pure
// function of the common record stream: the branch predictor's outcomes,
// the L1-I's hits and victims and, with the lead's seed and no miss
// elimination, the background data traffic (see the System.log field
// doc); it reports the lead's statistics for what it shares.
//
// A member's System lives from its first block to its last. A window that
// fits one block therefore runs member after member, each built on the
// tables the one before handed back — one System resident, whatever the
// size of the batch; a longer window keeps every member alive between its
// blocks.
//
// A batch of one is Run (which is written as one). An incompatible batch
// returns an error naming the first mismatched spec.
func RunBatch(specs []RunSpec) ([]Result, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	// The free lists are not trimmed under a running batch.
	freelist.Begin()
	defer freelist.End()
	b, err := newBatch(specs)
	if err != nil {
		return nil, err
	}
	if err := b.walk(); err != nil {
		return nil, err
	}
	return b.out, nil
}

// enter builds member m for its first block: the lead over the record
// streams, opened once, a follower over the log alone.
func (b *batch) enter(m int) error {
	var readers []trace.Reader
	if m == 0 {
		var err error
		if readers, err = b.specs[0].openReaders(); err != nil {
			return err
		}
	}
	spec := &b.specs[m]
	sys, err := build(spec.systemConfig(), readers, b.log, int(spec.WarmupRecords+spec.MeasureRecords))
	if err != nil {
		return err
	}
	sys.probe = spec.Probe
	b.systems[m] = sys
	return nil
}

// leave retires member m after its last block: the member has succeeded,
// so its result is extracted — under its own policy, for members may
// differ in the reporting confidence level, which never touches the
// schedule — and its tables are handed back (see System.release) for the
// next member, or the next batch, to build on.
func (b *batch) leave(m int) {
	sys := b.systems[m]
	b.out[m] = sys.result(b.specs[m].Sampling)
	sys.release()
	b.systems[m] = nil
}

// walk is the one execution path: it takes the batch's members through
// the schedule over the window of specs[0] — exact or sampled, one member
// or many — block by block and, within a block, member by member, and
// verifies that the streams supplied the whole window. Every member walks
// the identical deterministic schedule (validated equal by
// checkStreamCompatible), so each member's result is bit-identical to its
// standalone run.
func (b *batch) walk() error {
	warm, meas := b.specs[0].WarmupRecords, b.specs[0].MeasureRecords
	members := len(b.systems)
	bases := make([][]int64, members)
	var done int64
	for bi, blk := range b.blocks {
		for m := 0; m < members; m++ {
			if bi == 0 {
				if err := b.enter(m); err != nil {
					return err
				}
				if m == 0 {
					if err := b.systems[0].checkSupply(warm + meas); err != nil {
						return err
					}
				}
				bases[m] = b.systems[m].consumedBase()
			}
			ran, err := b.runBlock(m, blk)
			if err != nil {
				return err
			}
			if m == 0 {
				if done += ran; ran < blockRounds(blk) {
					// Counts are per phase, as StreamShortError documents; a
					// stream dry at the very start of the measure window, or
					// of a run without warmup, ran short in "measure".
					if done < warm {
						return &StreamShortError{Phase: "warmup", Core: -1, Need: warm, Have: done}
					}
					return &StreamShortError{Phase: "measure", Core: -1, Need: meas, Have: done - warm}
				}
				// Once a stream of the lead's has run dry the batch is bound
				// to fail — on the rounds it falls short by or on the lead's
				// checkConsumed — with the error the lead's standalone twin
				// reports, so the followers, which could not tell whose
				// record a short block is missing, are not stepped again.
				for _, dry := range b.systems[0].done {
					if dry {
						members = 1
					}
				}
			}
			if bi == len(b.blocks)-1 {
				// Catch a single dry stream the round loop papered over (see
				// System.checkConsumed).
				if err := b.systems[m].checkConsumed(bases[m], warm+meas); err != nil {
					return err
				}
				b.leave(m)
			}
		}
	}
	if b.log != nil {
		b.log.release()
		b.log = nil
	}
	return nil
}

// runBlock takes member m through one lockstep block and returns the
// rounds completed: fewer than the block's only when the lead's streams
// ran dry. The lead publishes the log from its start, a follower replays
// it from its start; each opens and closes the measured intervals whose
// boundaries fall inside the block.
func (b *batch) runBlock(m int, blk []piece) (int64, error) {
	sys := b.systems[m]
	sys.logPos, sys.markPos, sys.probePos, sys.regionPos = 0, 0, 0, 0
	if sys.lead {
		lg := b.log
		lg.marks, lg.traffic, lg.probes, lg.data, lg.regions = lg.marks[:0], lg.traffic[:0], lg.probes[:0], lg.data[:0], lg.regions[:0]
	}
	var ran int64
	for _, p := range blk {
		sys.applySegment(p.segment)
		if p.begin {
			sys.beginInterval()
		}
		n, err := sys.runRounds(p.rounds)
		if err != nil {
			return 0, err
		}
		if ran += n; n < p.rounds {
			if m > 0 {
				return 0, fmt.Errorf("sim: batch member diverged: %d rounds vs lead's %d", n, p.rounds)
			}
			return ran, nil
		}
		if p.end {
			sys.endInterval()
		}
	}
	if m > 0 && blk[len(blk)-1].functional {
		// A follower does not apply a functional piece's misses to its
		// L1-I replicas one by one (see System.consume); the lead's caches
		// stand at the end of this very block.
		for c, l1 := range sys.l1i {
			l1.CopyTagsFrom(b.log.mirrors[c])
		}
	}
	return ran, nil
}

// perCell are the fields of Config in which the members of a batch may
// differ: every other field describes the one system they share.
var perCell = map[string]bool{"CoreType": true, "Mode": true, "ElimProb": true, "Seed": true, "Prefetcher": true}

// systemField names the first field of Config outside perCell in which a
// and b differ, or returns "".
func systemField(a, b Config) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if name := va.Type().Field(i).Name; !perCell[name] && !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return name
		}
	}
	return ""
}

// checkStreamCompatible verifies that every spec consumes the same
// record stream as specs[0] on the same system: equal workload parameter
// sets (or group layouts), warmup/measure windows and system fields of
// Config.
func checkStreamCompatible(specs []RunSpec) error {
	ref := &specs[0]
	for i := 1; i < len(specs); i++ {
		s := &specs[i]
		switch f := systemField(s.Config, ref.Config); {
		case s.Config.Cores != ref.Config.Cores:
			return fmt.Errorf("sim: batch spec %d: %d cores, spec 0 has %d", i, s.Config.Cores, ref.Config.Cores)
		case f != "":
			return fmt.Errorf("sim: batch spec %d: %s differs from spec 0's: a batch runs one system", i, f)
		case s.WarmupRecords != ref.WarmupRecords || s.MeasureRecords != ref.MeasureRecords:
			return fmt.Errorf("sim: batch spec %d: window %d+%d records, spec 0 has %d+%d",
				i, s.WarmupRecords, s.MeasureRecords, ref.WarmupRecords, ref.MeasureRecords)
		case !s.Sampling.scheduleEqual(ref.Sampling):
			return fmt.Errorf("sim: batch spec %d: sampling policy %+v differs from spec 0's %+v",
				i, s.Sampling, ref.Sampling)
		case s.Source != ref.Source:
			// Source is compared by interface identity: the engine hands
			// every member of a batch the same registered source value, and
			// two distinct sources cannot be assumed to generate the same
			// stream even with equal parameters.
			return fmt.Errorf("sim: batch spec %d: stream source differs from spec 0", i)
		case len(s.Groups) != len(ref.Groups):
			return fmt.Errorf("sim: batch spec %d: %d groups, spec 0 has %d", i, len(s.Groups), len(ref.Groups))
		}
		if ref.Source != nil {
			continue
		}
		if len(ref.Groups) == 0 {
			if s.Workload != ref.Workload {
				return fmt.Errorf("sim: batch spec %d: workload %q differs from spec 0's %q", i, s.Workload.Name, ref.Workload.Name)
			}
			continue
		}
		for gi := range ref.Groups {
			if s.GroupWorkloads[gi] != ref.GroupWorkloads[gi] {
				return fmt.Errorf("sim: batch spec %d group %d: workload differs from spec 0", i, gi)
			}
			if s.Groups[gi].Name != ref.Groups[gi].Name || len(s.Groups[gi].Cores) != len(ref.Groups[gi].Cores) {
				return fmt.Errorf("sim: batch spec %d group %d: layout differs from spec 0", i, gi)
			}
			for ci, c := range ref.Groups[gi].Cores {
				if s.Groups[gi].Cores[ci] != c {
					return fmt.Errorf("sim: batch spec %d group %d: core list differs from spec 0", i, gi)
				}
			}
		}
	}
	return nil
}
