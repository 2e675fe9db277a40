package sim

import (
	"fmt"
	"io"

	"shift/internal/bpred"
	"shift/internal/cache"
	"shift/internal/core"
	"shift/internal/cpu"
	"shift/internal/noc"
	"shift/internal/prefetch"
	"shift/internal/trace"
	"shift/internal/workload"
)

// System is one simulated CMP bound to per-core trace readers.
type System struct {
	cfg Config

	// readers are the per-core record streams; nil on a RunBatch
	// follower, which reads the lead's log instead (see leadLog).
	readers []trace.Reader
	// fastReaders[i] is readers[i] when it is a concrete synthetic-
	// workload reader, letting the per-record Next call skip interface
	// dispatch (nil entries fall back to the interface).
	fastReaders []*workload.CoreReader
	done        []bool

	// tiles[coreID] is the core's mesh tile (coreID mod tile count).
	tiles []int

	clocks []*cpu.Clock
	bp     []*bpred.Hybrid
	// l1i are the per-core instruction caches: on the lead of a RunBatch
	// the log's (leadLog.mirrors), on a follower that replays the lead's
	// L1-I tags-only replicas.
	l1i     []*cache.ICache
	pb      []*cache.PrefetchBuffer
	l1mshr  []*cache.MSHRs
	llc     []*cache.LLCBank
	mesh    *noc.Mesh
	pf      []prefetch.Prefetcher
	shared  []*core.SharedHistory // KindHistory: one per group (per core for PerCore)
	groupOf []int                 // core -> its history's index in shared
	rng     []*trace.RNG

	dataAcc []float64
	records []int64
	fetch   []FetchStats
	adapt   []adaptState
	rounds  int64

	// hot gathers each core's per-record state behind a single bounds
	// check; see coreHot.
	hot []coreHot

	// adaptive and adaptEvery are the Section 6.1 generator-rotation
	// switches, resolved once at construction so the per-round check is
	// two loads.
	adaptive   bool
	adaptEvery int64

	// RunBatch membership (all zero on a standalone System). The members of
	// a batch consume the identical record stream on one system — they
	// differ in the design, core type, mode, miss elimination and seed
	// alone (see checkStreamCompatible) — so whatever is a pure function
	// of that stream is computed once: the lead member (lead) steps its
	// readers, its predictor and the log's instruction caches and publishes
	// each record into log; a follower reads the log instead of a stream
	// and replays what the lead decided:
	//
	//   - the branch outcome. It builds no predictor (bp is nil).
	//   - the L1-I outcome. All it keeps of an instruction cache are the
	//     tags its prefetch filter reads (l1i are replicas; see
	//     cache.ICache): in detailed stepping each miss word names the way
	//     the block went into, and after a functional stretch it copies the
	//     tags of the lead's caches, which are the log's. With the L1-I
	//     outcome it shares the lead's choice of functional LLC probes (the
	//     log's probe lists).
	//   - replayData: the background data traffic, when it would draw the
	//     lead's sequence (equal seeds, no miss elimination). It draws and
	//     accounts none: its snapshots take the lead's totals from the
	//     interval marks. Otherwise it draws its own.
	//
	// The counters of the predictor and L1-I it does not have, and the
	// data traffic it does not draw, reach a follower's results as
	// interval marks (see shareMark); the log is all it knows of the lead.
	// Detailed and functional stepping use the log alike: a follower steps
	// the (core, round) order the lead did, so logPos — the next record's
	// slot (functional records take slots only when the log keeps them; see
	// leadLog) — markPos — the next interval mark's — and probePos and
	// regionPos — the next probe and region lists' — simply count up
	// through a lockstep block, and the batch runner rewinds them at the
	// next.
	log        *leadLog
	lead       bool
	replayData bool
	logPos     int
	markPos    int
	probePos   int
	regionPos  int
	// own is where a System that reads its streams keeps a functional
	// stretch the log does not (see warmCore): one piece of words and, on a
	// System without a log, its probe list, built at the first functional
	// piece.
	own struct {
		words  []uint64
		probes []uint64
	}

	// probe is the run's RunSpec.Probe, which endInterval calls.
	probe func(int, Result)

	// Schedule state (see Sampling.segments and batch.walk): functional
	// selects the fast-forward stepping path in runRounds and llcMask its
	// LLC-warming stride; intervalStart is the snapshot the open interval
	// is measured from (see beginInterval), intervalEnd the one it is
	// closed at and then its delta (see sinceMark);
	// sampleAgg sums the closed intervals' deltas and the per-interval
	// metric samples feed result; llcWarmCnt[core] counts functional L1
	// misses for the strided LLC warming, on the member that reads the
	// stream.
	functional    bool
	llcMask       uint32
	intervalStart measurement
	intervalEnd   measurement
	sampleAgg     measurement
	mpkiSamples   []float64
	tputSamples   []float64
	llcWarmCnt    []uint32
}

// coreHot aliases the per-core objects step touches on every record, so
// the hot loop performs one slice index instead of ten. The canonical
// owners remain the System slices above (the pointers alias, never
// duplicate, their state).
type coreHot struct {
	clk  *cpu.Clock
	bp   *bpred.Hybrid // nil when branch modelling is off
	l1i  *cache.ICache
	pb   *cache.PrefetchBuffer
	mshr *cache.MSHRs
	rng  *trace.RNG
	pf   prefetch.Prefetcher
	// rep devirtualizes OnAccess for the replayer of an access-stream
	// history (SHIFT's and PIF's, the design points that dominate every
	// figure's grid; nil otherwise).
	rep   *core.Replayer
	fetch *FetchStats
	// warm is the design's functional-warming hook (nil when the design
	// has no history to keep warm) and rec the same hook when it compacts
	// region records; see consume in sampling.go.
	warm prefetch.Warmer
	rec  prefetch.RecordWarmer
}

// buildHot populates the hot aliases; must run after buildPrefetchers.
func (s *System) buildHot() {
	s.hot = make([]coreHot, s.cfg.Cores)
	for i := range s.hot {
		h := &s.hot[i]
		h.clk = s.clocks[i]
		if s.bp != nil {
			h.bp = s.bp[i]
		}
		h.l1i = s.l1i[i]
		h.pb = s.pb[i]
		h.mshr = s.l1mshr[i]
		h.rng = s.rng[i]
		h.pf = s.pf[i]
		h.rep, _ = s.pf[i].(*core.Replayer)
		h.warm, _ = s.pf[i].(prefetch.Warmer)
		h.rec, _ = s.pf[i].(prefetch.RecordWarmer)
		h.fetch = &s.fetch[i]
	}
}

// build constructs the System of a batch member (see batch.enter):
// standalone (lg nil), the lead of a RunBatch (lg and readers set) or one
// of its followers (lg set, no readers). A follower builds no predictor
// and of an instruction cache the tags alone, and decides here, from its
// configuration and the lead's, whether it replays the data traffic (see
// the System.log field doc). writes is the run's window in records per core, which bounds what each
// history appends (one record a round at most) and so sizes its host
// storage.
func build(cfg Config, readers []trace.Reader, lg *leadLog, writes int) (*System, error) {
	n := cfg.Cores
	s := &System{cfg: cfg, readers: readers, log: lg, lead: lg != nil && readers != nil}
	s.fastReaders = make([]*workload.CoreReader, n)
	for i, r := range readers {
		s.fastReaders[i], _ = r.(*workload.CoreReader)
	}
	s.done = make([]bool, n)
	s.clocks = make([]*cpu.Clock, n)
	s.pb = make([]*cache.PrefetchBuffer, n)
	s.l1mshr = make([]*cache.MSHRs, n)
	s.rng = make([]*trace.RNG, n)
	s.dataAcc = make([]float64, n)
	s.records = make([]int64, n)
	s.fetch = make([]FetchStats, n)
	s.llcWarmCnt = make([]uint32, n)
	follower := lg != nil && !s.lead
	if follower {
		s.replayData = replaysData(cfg, lg.cfg)
	}
	if cfg.BranchPredictorEntries > 0 && !follower {
		s.bp = make([]*bpred.Hybrid, n)
	}
	newL1 := cache.NewICache
	if follower {
		newL1 = cache.NewICacheReplica
	}
	if s.lead {
		s.l1i = lg.mirrors
	} else {
		s.l1i = make([]*cache.ICache, n)
	}
	for i := 0; i < n; i++ {
		s.clocks[i] = cpu.NewClock(cfg.CoreType)
		if s.l1i[i] == nil {
			l1, err := newL1(cfg.L1I)
			if err != nil {
				return nil, err
			}
			s.l1i[i] = l1
		}
		// Fully-associative prefetch buffer: prefetched blocks wait here
		// and move into the L1-I on first demand use, so mispredicted
		// prefetches never pollute the instruction cache (the
		// stream-prefetcher design PIF and SHIFT assume).
		pbuf, err := cache.NewPrefetchBuffer(prefetchBufferEntries)
		if err != nil {
			return nil, err
		}
		s.pb[i] = pbuf
		s.l1mshr[i] = cache.NewMSHRs(l1MSHRs)
		s.rng[i] = trace.NewRNG(cfg.Seed*7919 + int64(i))
		if s.bp != nil {
			h, err := bpred.NewHybrid(cfg.BranchPredictorEntries)
			if err != nil {
				return nil, err
			}
			s.bp[i] = h
		}
	}
	s.mesh = noc.MustNew(cfg.Mesh)
	s.tiles = make([]int, n)
	for i := range s.tiles {
		s.tiles[i] = i % cfg.Mesh.Tiles()
	}
	banks := cfg.Mesh.Tiles()
	// Banks are selected by (block mod banks), so bank-local set indexing
	// must skip those low bits.
	shift := uint(0)
	for 1<<shift < banks {
		shift++
	}
	// Only virtualized SHIFT keeps index pointers in the LLC's tags.
	pointers := cfg.Prefetcher.Kind == KindHistory && cfg.Prefetcher.History.Variant == core.Virtualized
	s.llc = make([]*cache.LLCBank, banks)
	for b := 0; b < banks; b++ {
		bank, err := cache.NewLLCBank(cache.Config{
			SizeBytes: cfg.LLCBankBytes, Assoc: cfg.LLCAssoc,
			BlockBytes: 64, TagPointers: pointers, IndexShift: shift,
		})
		if err != nil {
			return nil, err
		}
		s.llc[b] = bank
	}
	if err := s.buildPrefetchers(writes); err != nil {
		return nil, err
	}
	s.buildHot()
	s.adaptEvery = cfg.Prefetcher.AdaptWindow
	if s.adaptEvery <= 0 {
		s.adaptEvery = defaultAdaptWindow
	}
	s.adaptive = cfg.Prefetcher.AdaptiveGenerator && len(s.shared) > 0
	return s, nil
}

// dataStep[n] caches float64(n) * dataMPKI / 1000 for small retire
// counts, sparing the per-record floating divide. Entries are computed
// with exactly the expression they replace, so accumulation is
// bit-identical. The table is read-only.
var dataStep = func() (t [4096]float64) {
	for i := range t {
		t[i] = float64(i) * dataMPKI / 1000
	}
	return t
}()

// release hands the System's big tables — caches, predictors, histories
// and index tables — back to their packages' free lists, from which the
// next build of the same geometry takes them and resets only what this
// System wrote. Only batch.leave calls it, on the success path after the
// member's result is extracted: a System that returned an error or
// panicked mid-step (and may still be stepping, when the engine's
// watchdog abandoned it) is left to the collector. The System is unusable
// afterwards.
func (s *System) release() {
	// A lead's instruction caches are the log's, which releases them.
	if !s.lead {
		for _, c := range s.l1i {
			c.Release()
		}
	}
	for _, c := range s.pb {
		c.Release()
	}
	for _, c := range s.llc {
		c.Release()
	}
	for _, h := range s.bp {
		h.Release()
	}
	for _, sh := range s.shared {
		sh.Release()
	}
	*s = System{}
}

// buildPrefetchers instantiates the configured design point, its histories
// sized for writes records (see build).
func (s *System) buildPrefetchers(writes int) error {
	n := s.cfg.Cores
	s.pf = make([]prefetch.Prefetcher, n)
	s.groupOf = make([]int, n)
	spec := s.cfg.Prefetcher
	switch spec.Kind {
	case KindNone:
		for i := range s.pf {
			s.pf[i] = prefetch.NewNull()
		}
	case KindNextLine:
		for i := range s.pf {
			s.pf[i] = prefetch.NewNextLine(spec.NextLineDegree)
		}
	case KindHistory:
		var backend core.LLCBackend
		if spec.History.Variant == core.Virtualized {
			backend = (*llcBackend)(s)
		}
		groups := spec.Groups
		if len(groups) == 0 {
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			groups = []core.Group{{Name: "all", Cores: all}}
			if spec.PerCore {
				groups = make([]core.Group, n)
				for i := range groups {
					groups[i] = core.Group{Name: "per-core", Cores: all[i : i+1]}
				}
			}
		}
		shs, err := core.NewGroups(spec.History, groups, writes, backend)
		if err != nil {
			return err
		}
		s.shared = shs
		s.adapt = make([]adaptState, len(shs))
		// Pin every group's history range in every LLC bank. NewGroups
		// allocates consecutive ranges, so the union is contiguous.
		lo, _ := shs[0].Config().HBRange()
		_, hi := shs[len(shs)-1].Config().HBRange()
		if spec.History.Variant == core.Virtualized {
			for _, bank := range s.llc {
				bank.PinRange(lo, hi)
			}
		}
		for gi, g := range groups {
			for _, c := range g.Cores {
				if c < 0 || c >= n {
					return fmt.Errorf("sim: group %q core %d out of range", g.Name, c)
				}
				s.groupOf[c] = gi
				s.pf[c] = shs[gi].CorePrefetcher(c)
			}
		}
		for i := range s.pf {
			if s.pf[i] == nil {
				return fmt.Errorf("sim: core %d not covered by any group", i)
			}
		}
	default:
		return fmt.Errorf("sim: unknown prefetcher kind %d", spec.Kind)
	}
	return nil
}

// tileOf maps a core to its mesh tile (tiled design: one core and one LLC
// bank per tile). The modulo is precomputed per core at construction.
func (s *System) tileOf(coreID int) int { return s.tiles[coreID] }

// transact models one LLC transaction by core coreID to the bank holding
// blk: accounts one message of class cls with round-trip hops and returns
// (bank, latency). The latency includes the bank hit time; callers add
// memory latency on an LLC miss.
func (s *System) transact(cls noc.MsgClass, coreID int, blk trace.BlockAddr) (bank int, lat int64) {
	bank = s.mesh.BankForBlock(blk)
	t := s.tileOf(coreID)
	hops := s.mesh.Hops(t, bank)
	s.mesh.Account(cls, 2*hops)
	lat = L2HitCycles + int64(2*hops*s.cfg.Mesh.HopCycles)
	return bank, lat
}

// llcFetch performs a demand or prefetch fill from the LLC (or memory on
// an LLC miss), returning the total latency. Both are demand accesses to
// the bank: a prefetched block waits in the core's prefetch buffer, not
// in the LLC.
func (s *System) llcFetch(cls noc.MsgClass, coreID int, blk trace.BlockAddr) int64 {
	bank, lat := s.transact(cls, coreID, blk)
	if !s.llc[bank].LookupInsert(blk) {
		lat += MemCycles
	}
	return lat
}

// step advances core coreID by one trace record. It reports false when
// the core's trace is exhausted. A RunBatch follower takes the record, its
// branch outcome and its L1-I outcome from the lead log instead of a
// stream and structures of its own, and skips the data traffic it shares
// (see the System.log field doc); the lead publishes the log as it goes.
func (s *System) step(coreID int) (bool, error) {
	if s.done[coreID] {
		return false, nil
	}
	h := &s.hot[coreID]
	lg := s.log
	follower := lg != nil && !s.lead
	var rec trace.Record
	var w uint64
	if follower {
		w = lg.words[s.logPos]
		rec = unpackLog(w)
	} else {
		var err error
		if cr := s.fastReaders[coreID]; cr != nil {
			rec, err = cr.Next()
		} else {
			rec, err = s.readers[coreID].Next()
		}
		if err == io.EOF {
			s.done[coreID] = true
			return false, nil
		}
		if err != nil {
			return false, err
		}
	}
	s.records[coreID]++
	clk := h.clk

	// Branch direction modelling: every record that does not fall
	// through ends in a taken control transfer. The predictor's inputs and
	// state are functions of the record stream alone, so the outcome a
	// follower replays is exactly what a local evaluation would return.
	var mis bool
	if follower {
		mis = w&logMispredict != 0
	} else if h.bp != nil {
		taken := rec.Kind != trace.KindSeq
		mis = h.bp.PredictUpdate(rec.Block.Addr(), taken) != taken
	}
	if mis {
		clk.Mispredict()
	}

	now := clk.Now()
	blk := rec.Block
	fs := h.fetch
	fs.Accesses++
	// The L1 fill that follows every L1 miss is folded into the lookup
	// probe; the demand fill is unconditional on a miss, so inserting
	// before the prefetch-buffer/LLC legs below is equivalent (the L1 is
	// not touched again until the next record). The L1-I's content is a
	// function of the record stream alone (prefetches fill a separate
	// buffer), so a follower replays the lead's hit bit and applies the
	// miss to its replica, in the way the lead's cache took it.
	var hit bool
	if follower {
		if hit = w&logHit != 0; !hit {
			h.l1i.Put(blk, logWay(w))
		}
	} else {
		var way int
		hit, way = h.l1i.LookupInsert(blk)
		if s.lead {
			lg.words[s.logPos] = packLog(rec, mis, hit, way)
			if lg.builders != nil {
				lg.builders[coreID].Add(blk)
			}
		}
	}
	wasPf := false
	var stall int64
	if !hit {
		if h.pb.Extract(blk) {
			// Covered: the prefetch buffer holds the block. Expose only
			// the remaining in-flight latency, move the block into the
			// L1-I (Extract drains the buffered line in the same probe),
			// and report the access as a prefetch-covered hit.
			fs.PBHits++
			wasPf = true
			hit = true
			if ready, ok := h.mshr.Take(blk); ok {
				if ready > now {
					stall = ready - now
					fs.LatePBHits++
				}
			}
		} else {
			fs.Misses++
			eliminated := s.cfg.ElimProb > 0 && h.rng.Bool(s.cfg.ElimProb)
			lat := s.llcFetch(noc.DemandInstr, coreID, blk)
			if !eliminated {
				stall = lat
			}
		}
	}
	clk.FetchStall(stall)
	clk.Retire(int(rec.Instrs))

	// Prefetcher hook (retire order == access order in this frontend).
	// The SHIFT replayer is called directly when present; other designs
	// go through the interface.
	acc := prefetch.Access{Block: blk, Hit: hit, WasPrefetch: wasPf}
	var reqs []prefetch.Request
	if h.rep != nil {
		reqs = h.rep.OnAccess(acc)
	} else {
		reqs = h.pf.OnAccess(acc)
	}
	if s.cfg.Mode == ModePrefetch {
		for _, r := range reqs {
			s.issuePrefetch(coreID, h, r)
		}
	}

	// Background data-side LLC traffic (normalization denominator for
	// the Figure 9 study).
	// Note: the per-record addend must be computed as (instrs*MPKI)/1000 —
	// hoisting the division would change the floating-point rounding and
	// with it the exact record at which the accumulator crosses 1.0,
	// shifting the RNG stream and breaking bit-identical output. dataStep
	// caches that exact expression per retire count.
	// With equal seeds and no miss elimination the
	// accumulator and the draws are functions of the record stream alone:
	// a follower that would draw the lead's sequence draws nothing, and
	// reports the lead's totals at each interval mark instead — integer
	// counts, bit-identical accounting (see shareMark).
	if !s.replayData {
		if int(rec.Instrs) < len(dataStep) {
			s.dataAcc[coreID] += dataStep[rec.Instrs]
		} else {
			s.dataAcc[coreID] += float64(rec.Instrs) * dataMPKI / 1000
		}
		for s.dataAcc[coreID] >= 1 {
			s.dataAcc[coreID]--
			bank := h.rng.Intn(len(s.llc))
			s.mesh.Account(noc.DemandData, 2*s.mesh.Hops(s.tileOf(coreID), bank))
		}
	}
	s.logPos++
	h.mshr.Expire(clk.Now())
	return true, nil
}

// issuePrefetch brings r.Block into coreID's prefetch buffer unless it is
// already cached, buffered, or in flight.
func (s *System) issuePrefetch(coreID int, h *coreHot, r prefetch.Request) {
	blk := r.Block
	if h.l1i.Contains(blk) || h.pb.Contains(blk) {
		return
	}
	if h.mshr.Contains(blk) {
		return
	}
	issue := h.clk.Now() + r.Delay
	lat := s.llcFetch(noc.PrefetchFill, coreID, blk)
	// A full MSHR file delays the fill until an entry frees.
	h.mshr.Allocate(blk, issue, issue+lat)
	// Every block the buffer drops for room is a prefetch never used.
	if h.pb.Insert(blk) {
		h.fetch.Discards++
		s.mesh.Account(noc.Discard, 0)
	}
}

// runRounds advances one piece of the schedule, up to n rounds, returning
// the number completed (fewer only when every core's trace is exhausted). A
// detailed round steps every core by one record in turn, preserving the
// recency relationships a real concurrent system would have between the
// history generator and the replaying cores. On the functional
// fast-forward path the rounds run core-major instead (see
// runRoundsFunctional).
func (s *System) runRounds(n int64) (int64, error) {
	if s.functional {
		return s.runRoundsFunctional(n)
	}
	for r := int64(0); r < n; r++ {
		active, err := s.runRound()
		if err != nil {
			return r, err
		}
		if !active {
			return r, nil
		}
	}
	return n, nil
}

// runRound advances every core by one record and applies the adaptive
// generator check; it reports false when no core made progress. The
// adaptive monitor never sees functional rounds (those run through
// runRoundsFunctional): its coverage signal comes from the prefetch-
// buffer counters functional stepping deliberately freezes.
func (s *System) runRound() (bool, error) {
	active := false
	for c := 0; c < s.cfg.Cores; c++ {
		ok, err := s.step(c)
		if err != nil {
			return false, err
		}
		active = active || ok
	}
	if !active {
		return false, nil
	}
	s.rounds++
	if s.adaptive && s.rounds%s.adaptEvery == 0 {
		s.checkAdaptive()
	}
	return true, nil
}

// llcBackend adapts System to core.LLCBackend for virtualized SHIFT.
type llcBackend System

func (b *llcBackend) sys() *System { return (*System)(b) }

// PointerFor implements core.LLCBackend. The pointer piggybacks on the
// demand fill, so no extra traffic is accounted.
func (b *llcBackend) PointerFor(coreID int, blk trace.BlockAddr) (uint32, bool) {
	s := b.sys()
	bank := s.mesh.BankForBlock(blk)
	return s.llc[bank].Pointer(blk)
}

// UpdatePointer implements core.LLCBackend: an index-update message to
// the bank's tag array.
func (b *llcBackend) UpdatePointer(coreID int, blk trace.BlockAddr, ptr uint32) {
	s := b.sys()
	bank, _ := s.transact(noc.IndexUpdate, coreID, blk)
	s.llc[bank].SetPointer(blk, ptr)
}

// ReadHistoryBlock implements core.LLCBackend: a history-block read
// ("LogRead" traffic) with full LLC round-trip latency.
func (b *llcBackend) ReadHistoryBlock(coreID int, hbBlock trace.BlockAddr) int64 {
	s := b.sys()
	bank, lat := s.transact(noc.HistRead, coreID, hbBlock)
	if !s.llc[bank].Contains(hbBlock) {
		// History blocks are pinned once written; a read before the
		// first write simply installs the (empty) block.
		s.llc[bank].Insert(hbBlock)
	}
	return lat
}

// WriteHistoryBlock implements core.LLCBackend: a CBB flush ("LogWrite").
func (b *llcBackend) WriteHistoryBlock(coreID int, hbBlock trace.BlockAddr) {
	s := b.sys()
	bank, _ := s.transact(noc.HistWrite, coreID, hbBlock)
	s.llc[bank].Insert(hbBlock)
}

var _ core.LLCBackend = (*llcBackend)(nil)
