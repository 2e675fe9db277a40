package sim

import (
	"fmt"

	"shift/internal/cache"
	"shift/internal/trace"
)

// batchBlockRounds is the lockstep granularity of RunBatch: each member
// system runs this many rounds back to back before the next member
// takes the same block. Coarse blocks keep one system's simulation
// state hot in cache for cores×rounds records at a time (instead of
// thrashing K working sets against each other every record) and bounds
// the lead log, which holds one block.
const batchBlockRounds = 8192

// Lead-log word layout, low to high: the L1-I hit bit, the mispredict bit
// (meaningful only to a follower that shares the lead's predictor, and
// only in detailed stepping), the 3-bit trace.Kind, the 16-bit retire
// count, the 34-bit block address and, on an L1-I miss, the mirror way
// the block went into (see l1Mirror) in the 9 bits that remain.
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

// logWay is the mirror way a miss word names.
func logWay(w uint64) int { return int(w >> logWayShift) }

// unpackLog recovers the record of a log word.
func unpackLog(w uint64) trace.Record {
	return trace.Record{
		Block:  trace.BlockAddr(w >> logBlockShift & uint64(trace.MaxBlockAddr)),
		Instrs: uint16(w >> logInstrsShift),
		Kind:   trace.Kind(w >> logKindShift & 7),
	}
}

// leadLog is what the lead of a RunBatch publishes, one lockstep block
// at a time, for its followers to read in place of a stream: words holds
// the block's records in the order the lead stepped them (round-robin
// over the cores in detailed rounds, core after core in a functional
// block) and data each record's data-traffic aggregate (message count <<
// 32 | hop sum) at the same index. Followers step in the lead's order, so
// both arrays are written once and read once per follower, front to back.
type leadLog struct {
	words []uint64
	data  []uint64
}

// l1Mirror is a tag-only copy of one of the lead's L1-Is: sets × ways of
// block+1, zero for an empty way. The lead decides every hit and every
// victim, so all a shared-L1 follower needs of an instruction cache is
// membership, for its prefetch filter; which way of the cache holds a
// block, and how recently it was used, are unobservable to it. The lead
// keeps a mirror of its own beside the cache: on a miss the way holding
// the displaced block — or an empty one — takes the new block, which
// keeps the mirror's sets equal to the cache's as sets, and the way goes
// into the log word, so that a follower's mirror takes the miss with one
// store.
type l1Mirror struct {
	tags  []uint64
	ways  int
	shift uint
	mask  uint64
}

// newL1Mirrors returns n empty mirrors of geometry cfg over one backing
// array.
func newL1Mirrors(cfg cache.Config, n int) []l1Mirror {
	per := cfg.Sets() * cfg.Assoc
	tags := make([]uint64, n*per)
	ms := make([]l1Mirror, n)
	for i := range ms {
		ms[i] = l1Mirror{tags: tags[i*per : (i+1)*per], ways: cfg.Assoc, shift: cfg.IndexShift, mask: uint64(cfg.Sets() - 1)}
	}
	return ms
}

// set returns the ways of b's set.
func (m *l1Mirror) set(b trace.BlockAddr) []uint64 {
	base := int(uint64(b)>>m.shift&m.mask) * m.ways
	return m.tags[base : base+m.ways]
}

// contains reports whether the lead's L1-I holds b.
func (m *l1Mirror) contains(b trace.BlockAddr) bool {
	for _, t := range m.set(b) {
		if t == uint64(b)+1 {
			return true
		}
	}
	return false
}

// fill is the lead's side of a miss: b takes the way of the line the
// cache's fill displaced, or an empty one. It returns the way.
func (m *l1Mirror) fill(b trace.BlockAddr, ev cache.Evicted, evicted bool) int {
	victim := uint64(0)
	if evicted {
		victim = uint64(ev.Block) + 1
	}
	set := m.set(b)
	way := -1
	for i, t := range set {
		if t == victim {
			way = i
		}
	}
	if way < 0 {
		panic("sim: L1-I mirror diverged from the cache")
	}
	set[way] = uint64(b) + 1
	return way
}

// put is a follower's side of a miss: b goes into the way the lead logged.
func (m *l1Mirror) put(b trace.BlockAddr, way int) {
	m.set(b)[way] = uint64(b) + 1
}

// batch is the unit of execution: the systems that consume one record
// stream — the lead (systems[0]) and the followers that read its log, none
// for a single run — and the schedule all of them walk.
type batch struct {
	systems []*System
	segs    []segment
}

// newBatch validates the specs, opens the record streams once — for the
// lead — and builds every member. Followers are what the lead log and the
// lead's L1-I mirrors exist for, so a batch of one builds neither: its one
// member is the System New would return.
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
	readers, err := specs[0].openReaders()
	if err != nil {
		return nil, err
	}
	b := &batch{
		systems: make([]*System, len(specs)),
		segs:    specs[0].Sampling.segments(specs[0].WarmupRecords, specs[0].MeasureRecords),
	}
	var lg *leadLog
	if len(specs) > 1 {
		// The log holds one lockstep block, and no block is longer than
		// the longest stretch the schedule hands runLockstep.
		longest := int64(0)
		for _, seg := range b.segs {
			longest = max(longest, seg.rounds)
		}
		n := int(min(batchBlockRounds, longest)) * specs[0].Config.Cores
		lg = &leadLog{words: make([]uint64, n), data: make([]uint64, n)}
	}
	lead, err := build(specs[0].systemConfig(), readers, lg, nil)
	if err != nil {
		return nil, err
	}
	b.systems[0] = lead
	for m := 1; m < len(specs); m++ {
		if b.systems[m], err = build(specs[m].systemConfig(), nil, lg, lead); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// RunBatch executes several specs that consume the same trace stream in
// a single pass: every spec must agree on the workload(s), the core
// count, the warmup/measure window, and the sampling policy, while the
// system configuration (design point, seed, mode, history sizes, core
// type...) is free to vary. Only the first member — the lead — opens and
// decodes the per-core record streams; it steps them exactly as a
// standalone Run would and publishes what it read and decided into the
// lead log, and every other member steps off that log in block-lockstep,
// so each member observes exactly the per-core record order of a
// standalone Run — results are bit-identical to running every spec
// through Run, record for record.
//
// Beyond the decoding, a follower replays whatever else is a pure
// function of the common record stream and configured as on the lead:
// the branch predictor's outcomes, the background data traffic and the
// L1-I's hits and victims (see the System.log field doc); it reports the
// lead's statistics for what it shares.
//
// A batch of one is Run (which is written as one). An incompatible batch
// returns an error naming the first mismatched spec.
func RunBatch(specs []RunSpec) ([]Result, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	b, err := newBatch(specs)
	if err != nil {
		return nil, err
	}
	if err := b.walk(specs[0].WarmupRecords, specs[0].MeasureRecords); err != nil {
		return nil, err
	}
	out := make([]Result, len(specs))
	for m, sys := range b.systems {
		// Per-member policy: members may differ in the reporting
		// confidence level (it never touches the schedule).
		out[m] = sys.result(specs[m].Sampling)
		// The batch has succeeded and the result is extracted: hand the
		// member's tables back (see System.release).
		sys.release()
	}
	return out, nil
}

// walk is the one execution path: it takes the batch's systems through
// the schedule over a window of warm+meas records per core — exact or
// sampled, one member or many, built here or by a caller — segment by
// segment, bracketing each measured one with Begin/EndInterval, and
// verifies that the streams supplied the whole window. Every member walks
// the identical deterministic schedule (validated equal by
// checkStreamCompatible), so each member's result is bit-identical to
// its standalone run.
func (b *batch) walk(warm, meas int64) error {
	lead := b.systems[0]
	if err := lead.checkSupply(warm + meas); err != nil {
		return err
	}
	bases := make([][]int64, len(b.systems))
	for m, sys := range b.systems {
		bases[m] = sys.consumedBase()
		sys.sampleAgg, sys.mpkiSamples, sys.tputSamples = measurement{}, nil, nil
	}
	// Whatever the outcome, a caller-built System is left stepping in
	// detail.
	defer func() {
		for _, sys := range b.systems {
			sys.applySegment(segment{})
		}
	}()
	var done int64
	for _, seg := range b.segs {
		for _, sys := range b.systems {
			sys.applySegment(seg)
			if seg.measured {
				sys.BeginInterval()
			}
		}
		ran, err := b.runLockstep(seg.rounds)
		if err != nil {
			return err
		}
		if done += ran; ran < seg.rounds {
			// Counts are per phase, as StreamShortError documents; a stream
			// dry at the very start of the measure window, or of a run
			// without warmup, ran short in "measure".
			if done < warm {
				return &StreamShortError{Phase: "warmup", Core: -1, Need: warm, Have: done}
			}
			return &StreamShortError{Phase: "measure", Core: -1, Need: meas, Have: done - warm}
		}
		if seg.measured {
			for _, sys := range b.systems {
				sys.EndInterval()
			}
		}
	}
	for m, sys := range b.systems {
		// Catch a single dry stream the round loop papered over (see
		// System.checkConsumed).
		if err := sys.checkConsumed(bases[m], warm+meas); err != nil {
			return err
		}
	}
	return nil
}

// runLockstep advances every system by up to `records` rounds in blocks
// of batchBlockRounds and returns the rounds completed. A batch of one is
// blocked like any other, which is what keeps functional stepping —
// core-major within a block (see runRoundsFunctional) — in one global
// order however many members there are; no block outgrows the log, which
// holds the smaller of batchBlockRounds and the longest stretch of the
// schedule. If the lead's streams run dry the shortfall is visible to the
// caller.
func (b *batch) runLockstep(records int64) (int64, error) {
	for off := int64(0); off < records; {
		n := min(records-off, batchBlockRounds)
		ran, err := b.runBlock(n)
		if err != nil {
			return off, err
		}
		off += ran
		if ran < n {
			return off, nil
		}
	}
	return records, nil
}

// runBlock runs one lockstep block of up to n rounds: the lead steps it,
// publishing the log, then each follower replays the same rounds. Once a
// stream of the lead's has run dry the batch is bound to fail — on the
// rounds it fell short by or on the lead's checkConsumed — with the error
// the lead's standalone twin reports, so the followers, which could not
// tell whose record a short block is missing, are not stepped again.
func (b *batch) runBlock(n int64) (int64, error) {
	lead := b.systems[0]
	lead.logPos = 0
	ran, err := lead.runRounds(n)
	if err != nil {
		return 0, err
	}
	for _, dry := range lead.done {
		if dry {
			return ran, nil
		}
	}
	for _, sys := range b.systems[1:] {
		sys.logPos = 0
		fran, err := sys.runRounds(n)
		if err != nil {
			return 0, err
		}
		if fran != n {
			return 0, fmt.Errorf("sim: batch member diverged: %d rounds vs lead's %d", fran, n)
		}
		if sys.functional && sys.replayL1 {
			// A follower does not apply a functional block's misses to
			// its mirrors one by one (see warmFollower); the lead's stand at
			// the end of this very block.
			for c := range sys.mirrors {
				copy(sys.mirrors[c].tags, lead.mirrors[c].tags)
			}
		}
	}
	return n, nil
}

// checkStreamCompatible verifies that every spec consumes the same
// record stream as specs[0]: equal workload parameter sets (or group
// layouts), core counts, and warmup/measure windows.
func checkStreamCompatible(specs []RunSpec) error {
	ref := &specs[0]
	for i := 1; i < len(specs); i++ {
		s := &specs[i]
		switch {
		case s.Config.Cores != ref.Config.Cores:
			return fmt.Errorf("sim: batch spec %d: %d cores, spec 0 has %d", i, s.Config.Cores, ref.Config.Cores)
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
