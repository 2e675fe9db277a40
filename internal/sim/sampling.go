package sim

import (
	"fmt"
	"io"
	"math"

	"shift/internal/history"
	"shift/internal/prefetch"
	"shift/internal/trace"
	"shift/internal/validate"
)

// This file implements SMARTS-style interval sampling: instead of
// stepping the full detailed model over every record of the measurement
// window, a sampled run alternates short detailed intervals with cheap
// functional fast-forwarding, and reports each metric together with the
// dispersion of its per-interval samples (standard error and a
// confidence interval).
//
// The schedule is deterministic — a pure function of the Sampling
// policy and the window lengths — so a sampled run is exactly as
// reproducible as an exact one: same policy, same seed, same stream →
// bit-identical Result, standalone or batched (RunBatch members share
// the schedule round for round).
//
// The functional stepping path (System.warmCore) keeps the
// slow-warming state learning while the clock stands still, in two
// stages per core and piece. The stream-pure stage (produce) runs once
// per record stream — on a standalone System, or on the lead of a
// RunBatch for all its members:
//
//   - the branch predictor keeps evolving (a pure function of the
//     record stream);
//   - the L1-I content keeps evolving through the identical demand
//     lookup/insert the detailed path performs (content is a pure
//     function of the record stream — prefetches fill a separate
//     buffer, never the L1-I — so functional and detailed stepping
//     leave bit-identical instruction caches);
//   - each record and its L1-I outcome become a word — in the lead log
//     when a follower walks them, in the producer's own buffer otherwise —
//     and the misses that warm the LLC (a pure function of the L1-I
//     outcome and the zone, see llcFarStride) a probe list;
//   - on the lead of a batch with members that compact, the records are
//     compacted into spatial region records (a pure function of the
//     record stream and the builder's state), a region list.
//
// The member's own stage (consume) runs once per member, off the words
// and the lists:
//
//   - the LLC banks take the listed demand probes;
//   - prefetcher history generation keeps appending through the
//     design's prefetch.Warmer hook (region compaction, history and
//     index writes), for the accesses the design declares it needs — a
//     core that needs none walks the probe list alone, a thirteenth of
//     the records far from an interval, and a core whose builder stands
//     where the log's does walks the region list beside it.
//
// Everything that is timing, traffic, or replay bookkeeping is
// skipped: cycle accounting, exposed-stall computation, MSHR
// allocation/expiry, prefetch issue, the stream-address-buffer replay
// machinery, NoC message/hop accounting, background data-side traffic
// (and its RNG draws — functional rounds are RNG-neutral), and the
// per-record statistics counters. Those structures re-warm during each
// interval's detailed-warmup prefix, which is exactly what the warmup
// fraction of the policy buys.

// Sampling configures interval sampling for a run. The zero value (and
// any Period below 2) means exact simulation: every record is stepped
// through the full detailed model, which remains the default
// everywhere.
type Sampling struct {
	// Period is the sampling period in intervals: one interval of every
	// Period is simulated in detail and measured; the remaining
	// Period-1 are fast-forwarded with functional warming. 0 or 1
	// disables sampling (exact simulation).
	Period int64
	// IntervalRecords is the length of one interval in records per core
	// (equivalently, lockstep rounds). 0 means the default (500).
	IntervalRecords int64
	// WarmupFraction is the fraction of IntervalRecords simulated in
	// detail — but excluded from measurement — immediately before each
	// measured interval, re-warming the timing structures (prefetch
	// buffer, MSHRs, replay streams) that functional fast-forwarding
	// froze. 0 means the default (0.25); it must stay below 1.
	WarmupFraction float64
	// Confidence selects the confidence level of the reported
	// per-metric intervals: 0.90, 0.95, or 0.99. 0 means the default
	// (0.95).
	Confidence float64
}

// Default policy knobs (applied by withDefaults when a field is zero).
const (
	defaultIntervalRecords = 500
	defaultWarmupFraction  = 0.25
	defaultConfidence      = 0.95
)

// Functional LLC warming runs in two zones per gap (see segments): far
// from the next detailed interval, every llcFarStride-th L1-missed
// record per core performs the demand lookup/insert on its LLC bank —
// enough to keep megabyte-scale bank contents tracking the access
// stream at a fraction of the probe cost — while the final
// llcNearRounds of each gap warm on every miss, so the interval opens
// on a bank state whose recent working set matches what continuous
// detailed simulation would have inserted. Both are powers of two /
// fixed constants, so the schedule stays a pure function of the
// policy.
const (
	llcFarStride  = 8
	llcNearRounds = 3072
)

// Enabled reports whether the policy actually samples (Period >= 2).
func (p Sampling) Enabled() bool { return p.Period > 1 }

// Normalized returns the policy in canonical form: a disabled policy
// collapses to the zero value and an enabled one has its defaults
// filled in, so policies that run identically compare — and hash —
// equal. Storage keys and batch compatibility are computed over the
// normalized form.
func (p Sampling) Normalized() Sampling {
	if !p.Enabled() {
		return Sampling{}
	}
	return p.withDefaults()
}

// scheduleEqual reports whether two policies lay out the identical
// lockstep schedule; Confidence only affects how the error bounds are
// reported, never a single simulated record.
func (p Sampling) scheduleEqual(o Sampling) bool {
	p, o = p.Normalized(), o.Normalized()
	p.Confidence, o.Confidence = 0, 0
	return p == o
}

// withDefaults fills zero fields of an enabled policy.
func (p Sampling) withDefaults() Sampling {
	if !p.Enabled() {
		return p
	}
	if p.IntervalRecords == 0 {
		p.IntervalRecords = defaultIntervalRecords
	}
	if p.WarmupFraction == 0 {
		p.WarmupFraction = defaultWarmupFraction
	}
	if p.Confidence == 0 {
		p.Confidence = defaultConfidence
	}
	return p
}

// validate reports the first problem with p as a *validate.FieldError
// under the field's wire name, or nil. Every field is checked whatever
// the period, so a policy that does not sample is still a well-formed one.
func (p Sampling) validate() error {
	if p.Period < 0 {
		return validate.Fieldf("sample_period", "must be >= 0, got %d", p.Period)
	}
	if p.IntervalRecords < 0 {
		return validate.Fieldf("sample_interval", "must be >= 0, got %d", p.IntervalRecords)
	}
	if !(p.WarmupFraction >= 0 && p.WarmupFraction < 1) {
		return validate.Fieldf("sample_warmup", "must be in [0,1), got %g", p.WarmupFraction)
	}
	switch p.Confidence {
	case 0, 0.90, 0.95, 0.99:
	default:
		return validate.Fieldf("sample_confidence", "must be one of 0.90, 0.95, 0.99, got %g", p.Confidence)
	}
	return nil
}

// z returns the normal quantile for the policy's confidence level.
func (p Sampling) z() float64 {
	switch p.withDefaults().Confidence {
	case 0.90:
		return 1.6449
	case 0.99:
		return 2.5758
	default:
		return 1.9600
	}
}

// chunkRounds is the length of one sampling unit (one measured interval
// plus its functional gap and detailed warmup) in lockstep rounds.
func (p Sampling) chunkRounds() int64 { return p.Period * p.IntervalRecords }

// warmupRounds is the detailed-but-unmeasured prefix of each measured
// interval in lockstep rounds.
func (p Sampling) warmupRounds() int64 {
	return int64(p.WarmupFraction * float64(p.IntervalRecords))
}

// intervals returns how many measured intervals fit into a measurement
// window of `measure` records per core.
func (p Sampling) intervals(measure int64) int64 {
	p = p.withDefaults()
	if !p.Enabled() || p.chunkRounds() <= 0 {
		return 0
	}
	return measure / p.chunkRounds()
}

// segment is one contiguous slice of the sampled schedule.
type segment struct {
	// rounds is the segment length in lockstep rounds.
	rounds int64
	// functional selects the fast-forward stepping path.
	functional bool
	// measured marks a detailed interval bracketed by beginInterval/endInterval.
	measured bool
	// llcMask is the functional LLC-warming stride minus one (stride is
	// a power of two): 0 warms on every L1 miss, llcFarStride-1 on
	// every llcFarStride-th per core. Meaningful only with functional.
	llcMask uint32
}

// appendFunctional splits a functional stretch into the far (strided
// LLC warming) and near (full LLC warming) zones.
func appendFunctional(segs []segment, rounds int64) []segment {
	if rounds <= 0 {
		return segs
	}
	if far := rounds - llcNearRounds; far > 0 {
		segs = append(segs, segment{far, true, false, llcFarStride - 1})
		rounds = llcNearRounds
	}
	return append(segs, segment{rounds, true, false, 0})
}

// segments lays the whole run out deterministically: the spec warmup is
// fast-forwarded functionally, then the measurement window is cut into
// chunks of Period*IntervalRecords rounds — a functional gap, a
// detailed (unmeasured) warmup of WarmupFraction*IntervalRecords
// rounds, and the measured interval — with any trailing remainder
// fast-forwarded functionally, so a sampled run consumes exactly the
// records its exact counterpart would.
//
// A disabled policy is the same schedule with one full-length interval
// and nothing skipped: the warmup in detail, unmeasured, then the whole
// measurement window as the one measured interval — exact simulation.
func (p Sampling) segments(warmup, measure int64) []segment {
	if !p.Enabled() {
		return []segment{{rounds: warmup}, {rounds: measure, measured: true}}
	}
	p = p.withDefaults()
	var segs []segment
	chunk := p.chunkRounds()
	warm := p.warmupRounds()
	gap := chunk - p.IntervalRecords - warm
	n := measure / chunk
	// The spec warmup runs functionally; when it flows directly into a
	// measured chunk's gap the two form one functional stretch, so the
	// near-zone split applies to their union.
	head := warmup
	if n > 0 {
		head += gap
	}
	segs = appendFunctional(segs, head)
	for i := int64(0); i < n; i++ {
		if i > 0 {
			segs = appendFunctional(segs, gap)
		}
		if warm > 0 {
			segs = append(segs, segment{warm, false, false, 0})
		}
		segs = append(segs, segment{p.IntervalRecords, false, true, 0})
	}
	if rem := measure - n*chunk; rem > 0 {
		segs = appendFunctional(segs, rem)
	}
	return segs
}

// MetricEstimate reports the per-interval dispersion of one metric of a
// sampled run.
type MetricEstimate struct {
	// StdErr is the standard error of the mean across intervals.
	StdErr float64
	// CIHalfWidth is the half width of the confidence interval at the
	// policy's confidence level (z * StdErr).
	CIHalfWidth float64
}

// estimate summarizes samples at normal quantile z.
func estimate(samples []float64, z float64) MetricEstimate {
	n := len(samples)
	if n < 2 {
		return MetricEstimate{}
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range samples {
		d := v - mean
		ss += d * d
	}
	se := math.Sqrt(ss/float64(n-1)) / math.Sqrt(float64(n))
	return MetricEstimate{StdErr: se, CIHalfWidth: z * se}
}

// SampleStats is the error-bound report of a sampled run, attached to
// its Result.
type SampleStats struct {
	// Intervals is the number of measured detailed intervals.
	Intervals int
	// Confidence is the confidence level of the CIHalfWidth fields.
	Confidence float64
	// MPKI and Throughput summarize the per-interval samples of the two
	// headline metrics.
	MPKI, Throughput MetricEstimate
}

// applySegment arms the stepping mode and the functional LLC-warming
// stride for one schedule segment.
func (s *System) applySegment(seg segment) {
	s.functional = seg.functional
	s.llcMask = seg.llcMask
}

// beginInterval opens a measured interval of the schedule at the current
// counters, excluding everything before it (the warmup, in the paper's
// SimFlex methodology); endInterval turns the delta into one per-interval
// sample.
func (s *System) beginInterval() { s.snapshot(&s.intervalStart) }

// endInterval closes the interval opened by beginInterval: the counter
// delta joins the run's aggregate measurement, contributes one sample per
// tracked metric and, with a probe attached, is reported to it.
func (s *System) endInterval() {
	d := s.sinceMark()
	if s.sampleAgg.cycles == nil {
		s.sampleAgg = newMeasurement(len(d.cycles))
	}
	s.sampleAgg.add(d)
	var instrs, misses int64
	var tput float64
	for i := range d.instrs {
		instrs += d.instrs[i]
		misses += d.fetch[i].Misses
		if d.cycles[i] > 0 {
			tput += float64(d.instrs[i]) / float64(d.cycles[i])
		}
	}
	mpki := 0.0
	if instrs > 0 {
		mpki = float64(misses) / float64(instrs) * 1000
	}
	s.mpkiSamples = append(s.mpkiSamples, mpki)
	s.tputSamples = append(s.tputSamples, tput)
	if s.probe != nil {
		s.probe(len(s.mpkiSamples)-1, s.resultFromDelta(d))
	}
}

// result aggregates the schedule's measured intervals into a Result —
// for an exact run that is the one interval, the measurement window —
// and, when p samples, attaches the per-metric error bounds.
func (s *System) result(p Sampling) Result {
	r := s.resultFromDelta(&s.sampleAgg)
	if p.Enabled() {
		p = p.withDefaults()
		z := p.z()
		r.Sampled = &SampleStats{
			Intervals:  len(s.mpkiSamples),
			Confidence: p.Confidence,
			MPKI:       estimate(s.mpkiSamples, z),
			Throughput: estimate(s.tputSamples, z),
		}
	}
	return r
}

// warmCore runs up to n functional steps of core coreID back to back, in
// two stages with the piece's stretch of words between them. The member
// that reads the stream — a standalone System or the lead of a RunBatch —
// produces the stretch: it does, once, everything that is a function of
// the record stream alone. Every member then consumes it: the LLC warming
// and history generation that are its own. A follower consumes what the
// lead published: the words, when the log keeps them, and the lists. It
// returns the number of records stepped (fewer than n only when the core's
// trace is exhausted).
func (s *System) warmCore(coreID int, n int64) (int64, error) {
	if s.done[coreID] {
		return 0, nil
	}
	var (
		words   []uint64
		probes  []uint64
		regions regionList
		err     error
	)
	switch lg := s.log; {
	case lg == nil:
		words, s.own.probes, err = s.produce(coreID, s.stretchWords(n), s.own.probes[:0])
		probes = s.own.probes
	case s.lead:
		at := lg.openProbes()
		words, lg.probes, err = s.produce(coreID, s.stretchWords(n), lg.probes)
		probes = lg.closeProbes(at)
	default:
		if lg.stretches {
			words = lg.words[s.logPos : s.logPos+int(n)]
		}
		probes, s.probePos = lg.probesAt(s.probePos)
	}
	if err != nil {
		return 0, err
	}
	// A follower without the words steps the whole piece: the lead did,
	// or its followers would not be stepped (see batch.walk).
	if words != nil {
		n = int64(len(words))
	}
	if lg := s.log; lg != nil && lg.builders != nil {
		regions = lg.regions[s.regionPos]
		s.regionPos++
	}
	if err := s.consume(coreID, words, probes, regions); err != nil {
		return 0, err
	}
	s.records[coreID] += n
	if lg := s.log; lg != nil && lg.stretches {
		s.logPos += int(n)
	}
	return n, nil
}

// stretchWords is where the member that reads the stream writes a
// functional stretch of n records: the lead log, when a follower walks
// stretches, or a buffer of its own.
func (s *System) stretchWords(n int64) []uint64 {
	if lg := s.log; lg != nil && lg.stretches {
		return lg.words[s.logPos : s.logPos+int(n)]
	}
	if int64(len(s.own.words)) < n {
		s.own.words = make([]uint64, n)
	}
	return s.own.words[:n]
}

// produce is the stream-pure stage of a functional stretch of core coreID:
// for each of up to len(words) records it reads the record, advances the
// branch predictor (a pure function of the record stream, so its state
// keeps evolving; the outcome drives no timing) and performs the identical
// demand probe of the L1-I the detailed path performs — L1-I content is a
// pure function of the record stream (prefetches fill a separate buffer),
// so functional and detailed stepping leave bit-identical instruction
// caches — and packs record and outcome into the next word, as step does
// for a lead. It appends to probes the misses that warm the LLC (see
// consume) and returns the words written, fewer than len(words) only when
// the core's trace is exhausted, and the list. A lead whose log carries
// region lists also advances the log's builder over every record and
// writes the stretch's region list (see leadLog.builders).
func (s *System) produce(coreID int, words []uint64, probes []uint64) ([]uint64, []uint64, error) {
	h := &s.hot[coreID]
	var (
		bp      = h.bp
		cr      = s.fastReaders[coreID]
		l1      = h.l1i
		warmCnt = s.llcWarmCnt[coreID]
		mask    = s.llcMask
		lg      = s.log
		bld     *history.Builder
		start   history.Builder
		data    []uint64
		first   int
	)
	if lg != nil && lg.builders != nil {
		bld = &lg.builders[coreID]
		start, data, first = *bld, lg.data, len(lg.data)
	}
	for i := range words {
		var rec trace.Record
		var err error
		if cr != nil {
			rec, err = cr.Next()
		} else {
			rec, err = s.readers[coreID].Next()
		}
		if err == io.EOF {
			s.done[coreID] = true
			words = words[:i]
			break
		}
		if err != nil {
			return words[:i], probes, err
		}
		if bp != nil {
			bp.PredictUpdate(rec.Block.Addr(), rec.Kind != trace.KindSeq)
		}
		hit, way := l1.LookupInsert(rec.Block)
		words[i] = packLog(rec, false, hit, way)
		if !hit {
			if warmCnt++; warmCnt&mask == 0 {
				probes = append(probes, packProbe(rec.Block, i))
			}
		}
		if bld != nil {
			if r, done := bld.Add(rec.Block); done {
				data = append(data, packRegion(r, i))
			}
		}
	}
	s.llcWarmCnt[coreID] = warmCnt
	if bld != nil {
		lg.data = data
		lg.regions = append(lg.regions, regionList{start: start, end: *bld, recs: data[first:]})
	}
	return words, probes, nil
}

// consume is the member's own stage of a functional stretch of core
// coreID: words are the stretch's records with the producer's L1-I
// outcome — nil on a follower whose log does not keep them — probes the
// misses that warm the LLC and regions the stretch compacted by the log's
// builder (the zero list on a System without one).
//
// LLC warming keeps the banks demand-warm, without any latency or traffic
// modelling: bank contents — and, for virtualized SHIFT, the index
// pointers riding on resident tags — track the access stream instead of
// freezing for the whole gap. Far from the next detailed interval a
// strided probe suffices: the banks hold megabytes, so content freshness
// is governed by the insertion horizon, not the per-miss insertion rate;
// the llcNearRounds before each interval warm on every miss so the
// interval opens on a fresh recent working set. The prefetch buffer is
// left untouched (frozen): it is a small timing structure whose steady-
// state pressure the detailed warmup prefix restores, and freezing
// preserves its age distribution.
//
// History generation — the slow-warming design state — goes through the
// design's Warmer, for the accesses it asks for. It is asked here, once
// per stretch: what a SHIFT core needs changes when the generator role
// rotates, and that happens in detailed rounds only (see runRound).
//
// A core with nothing but the probes to apply — no Warmer that needs
// anything — walks the probe list and never looks at the words. So does a
// core
// whose one other task is compaction, when its builder is in the state
// the log's was in at the stretch's start — the whole precondition:
// compaction is a function of the builder's state and the accesses, so
// the stretch's region records are exactly what its own builder would
// complete. It applies them, merged with the probes by offset, and takes
// the log builder's end state. Any other core — a builder at another span,
// a SHIFT generator whose role rotated (SetGenerator resets the builder),
// a System without region lists — walks the words, in which the probes
// and its own builder's records fall in their place, so a bank sees its
// core's probes and history writes in one order either way. The log keeps
// the words whenever a follower may walk them (see walksStretches); a
// follower that finds none to walk fails.
func (s *System) consume(coreID int, words []uint64, probes []uint64, regions regionList) error {
	need, rw := s.consumeWork(coreID, regions.start)
	switch {
	case rw != nil:
		s.consumeListed(probes, regions.recs, rw)
		*rw.WarmBuilder() = regions.end
		return nil
	case need == prefetch.WarmNone:
		s.consumeListed(probes, nil, nil)
		return nil
	case words == nil:
		return fmt.Errorf("sim: batch member %s walks a functional stretch of core %d its lead log does not keep", s.cfg.Prefetcher.Name(), coreID)
	}
	var (
		warm  = s.hot[coreID].warm
		every = need == prefetch.WarmRecords
		next  = 0 // the next of probes
	)
	for i, w := range words {
		blk, hit := logBlock(w), w&logHit != 0
		if next < len(probes) {
			if _, at := unpackProbe(probes[next]); at == i {
				s.warmLLC(blk)
				next++
			}
		}
		if every || !hit {
			warm.WarmAccess(blk, hit)
		}
	}
	return nil
}

// consumeListed applies a stretch's LLC probes and, through rw, its region
// records, in one order by offset: at an offset that has both, the probe
// first, as the words walk orders them.
func (s *System) consumeListed(probes []uint64, recs []uint64, rw prefetch.RecordWarmer) {
	next := 0
	for _, w := range recs {
		r, at := unpackRegion(w)
		for ; next < len(probes); next++ {
			blk, pat := unpackProbe(probes[next])
			if pat > at {
				break
			}
			s.warmLLC(blk)
		}
		rw.WarmRecord(r)
	}
	for _, p := range probes[next:] {
		blk, _ := unpackProbe(p)
		s.warmLLC(blk)
	}
}

// warmLLC is one functional LLC probe: the demand lookup/insert of blk on
// its bank.
func (s *System) warmLLC(blk trace.BlockAddr) {
	s.llc[s.mesh.BankForBlock(blk)].LookupInsert(blk)
}

// consumeWork is what consume owes a stretch of core coreID beyond its
// probes: the accesses the design's Warmer asks for. rw is that Warmer
// when the core owes nothing but compaction and its builder equals start,
// the log builder's state at the stretch's start: the stretch's region
// records are then the core's own.
func (s *System) consumeWork(coreID int, start history.Builder) (need prefetch.WarmNeed, rw prefetch.RecordWarmer) {
	h := &s.hot[coreID]
	if h.warm != nil {
		need = h.warm.WarmNeeds()
	}
	if need == prefetch.WarmRecords && h.rec != nil && *h.rec.WarmBuilder() == start {
		rw = h.rec
	}
	return need, rw
}

// runRoundsFunctional advances one piece of up to n rounds on the
// functional path, core-major: cores barely interact while timing
// stands still (the L1-I and history are per-core), so stepping each core
// through the whole piece back to back keeps its stream chunk,
// instruction cache, and history builder hot instead of thrashing every
// core's state on every round — a large constant-factor win on the
// fast-forward path. The pieces are cutBlocks', for one member as for
// many, so the few cross-core touch points (shared-LLC warming order,
// the generator's index-pointer updates) happen in the identical global
// order standalone and batched — which keeps sampled batch members
// bit-identical to their standalone runs. It returns the number of
// full rounds completed (the minimum over cores when a stream runs
// dry).
func (s *System) runRoundsFunctional(n int64) (int64, error) {
	done := n
	for c := 0; c < s.cfg.Cores; c++ {
		ran, err := s.warmCore(c, n)
		if err != nil {
			return 0, err
		}
		done = min(done, ran)
	}
	s.rounds += done
	return done, nil
}
