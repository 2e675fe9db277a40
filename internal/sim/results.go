package sim

import (
	"shift/internal/cache"
	"shift/internal/noc"
	"shift/internal/prefetch"
)

// FetchStats counts the demand-fetch outcomes of one core (or, when
// aggregated, of the whole CMP). Misses are *effective* misses: demand
// accesses that found the block in neither the L1-I nor the prefetch
// buffer and therefore paid the LLC round trip.
type FetchStats struct {
	// Accesses is the number of demand instruction-block fetches.
	Accesses int64
	// Misses is the number of effective (stalling) misses.
	Misses int64
	// PBHits is the number of L1-I misses covered by the prefetch buffer
	// (the paper's "covered" misses in Figure 7).
	PBHits int64
	// LatePBHits counts PBHits that still exposed partial latency
	// because the prefetch was issued too late to fully hide the fill.
	LatePBHits int64
	// Discards counts prefetched blocks evicted from the prefetch buffer
	// before any demand use (the paper's overpredictions/discards).
	Discards int64
}

func subFetch(a, b FetchStats) FetchStats {
	return FetchStats{
		Accesses:   a.Accesses - b.Accesses,
		Misses:     a.Misses - b.Misses,
		PBHits:     a.PBHits - b.PBHits,
		LatePBHits: a.LatePBHits - b.LatePBHits,
		Discards:   a.Discards - b.Discards,
	}
}

func addFetch(a, b FetchStats) FetchStats {
	return FetchStats{
		Accesses:   a.Accesses + b.Accesses,
		Misses:     a.Misses + b.Misses,
		PBHits:     a.PBHits + b.PBHits,
		LatePBHits: a.LatePBHits + b.LatePBHits,
		Discards:   a.Discards + b.Discards,
	}
}

// measurement is a raw counter snapshot used to subtract warmup activity.
type measurement struct {
	cycles      []int64
	instrs      []int64
	fetchStall  []int64
	branchStall []int64
	records     []int64
	l1          []cache.Stats
	fetch       []FetchStats
	traffic     [noc.NumClasses]int64
	hops        [noc.NumClasses]int64
	pf          []prefetch.Stats
	bpPred      []int64
	bpMiss      []int64
}

// newMeasurement returns a zeroed measurement with all per-core slices
// allocated.
func newMeasurement(n int) measurement {
	return measurement{
		cycles:      make([]int64, n),
		instrs:      make([]int64, n),
		fetchStall:  make([]int64, n),
		branchStall: make([]int64, n),
		records:     make([]int64, n),
		l1:          make([]cache.Stats, n),
		fetch:       make([]FetchStats, n),
		pf:          make([]prefetch.Stats, n),
		bpPred:      make([]int64, n),
		bpMiss:      make([]int64, n),
	}
}

// sub subtracts b from m in place (m -= b), turning two snapshots into
// a window delta.
func (m *measurement) sub(b *measurement) {
	for i := range m.cycles {
		m.cycles[i] -= b.cycles[i]
		m.instrs[i] -= b.instrs[i]
		m.fetchStall[i] -= b.fetchStall[i]
		m.branchStall[i] -= b.branchStall[i]
		m.records[i] -= b.records[i]
		m.l1[i] = subCache(m.l1[i], b.l1[i])
		m.fetch[i] = subFetch(m.fetch[i], b.fetch[i])
		m.pf[i] = subPf(m.pf[i], b.pf[i])
		m.bpPred[i] -= b.bpPred[i]
		m.bpMiss[i] -= b.bpMiss[i]
	}
	for c := 0; c < noc.NumClasses; c++ {
		m.traffic[c] -= b.traffic[c]
		m.hops[c] -= b.hops[c]
	}
}

// add accumulates the delta d into m (m += d); sampled runs sum their
// measured-interval deltas this way.
func (m *measurement) add(d *measurement) {
	for i := range m.cycles {
		m.cycles[i] += d.cycles[i]
		m.instrs[i] += d.instrs[i]
		m.fetchStall[i] += d.fetchStall[i]
		m.branchStall[i] += d.branchStall[i]
		m.records[i] += d.records[i]
		m.l1[i] = addCache(m.l1[i], d.l1[i])
		m.fetch[i] = addFetch(m.fetch[i], d.fetch[i])
		m.pf[i].Add(d.pf[i])
		m.bpPred[i] += d.bpPred[i]
		m.bpMiss[i] += d.bpMiss[i]
	}
	for c := 0; c < noc.NumClasses; c++ {
		m.traffic[c] += d.traffic[c]
		m.hops[c] += d.hops[c]
	}
}

func (s *System) snapshot() measurement {
	n := s.cfg.Cores
	m := newMeasurement(n)
	for i := 0; i < n; i++ {
		m.cycles[i] = s.clocks[i].Now()
		m.instrs[i] = s.clocks[i].Instructions()
		m.fetchStall[i] = s.clocks[i].FetchStallCycles()
		m.branchStall[i] = s.clocks[i].BranchStallCycles()
		m.records[i] = s.records[i]
		m.l1[i] = s.l1i[i].Stats()
		m.fetch[i] = s.fetch[i]
		if sr, ok := s.pf[i].(prefetch.StatsReporter); ok {
			m.pf[i] = sr.PrefetchStats()
		}
		if s.bp != nil {
			m.bpPred[i] = s.bp[i].Predictions()
			m.bpMiss[i] = s.bp[i].Mispredicts()
		}
	}
	for c := 0; c < noc.NumClasses; c++ {
		m.traffic[c] = s.mesh.Traffic(noc.MsgClass(c))
		m.hops[c] = s.mesh.HopCount(noc.MsgClass(c))
	}
	if s.log != nil {
		s.shareMark(&m)
	}
	return m
}

// CoreResult is one core's measurement-window summary.
type CoreResult struct {
	Cycles       int64
	Instructions int64
	Records      int64
	FetchStall   int64
	BranchStall  int64
	IPC          float64
	L1I          cache.Stats
	Fetch        FetchStats
	Pf           prefetch.Stats
}

// Result summarizes the measurement window of one run.
type Result struct {
	Label    string
	PerCore  []CoreResult
	Cores    int
	CoreType string

	// Instructions and Records are totals across cores.
	Instructions int64
	Records      int64
	// Throughput is the sum over cores of per-core IPC — the system
	// throughput proxy the paper uses (application instructions divided
	// by cycles, summed over the CMP).
	Throughput float64
	// FetchStallFraction is the mean fraction of cycles lost to exposed
	// instruction-fetch stalls.
	FetchStallFraction float64
	// BranchAccuracy is the hybrid predictor's accuracy.
	BranchAccuracy float64

	// L1I aggregates the raw instruction-cache counters across cores.
	L1I cache.Stats
	// Fetch aggregates the effective demand-fetch outcomes (L1-I plus
	// prefetch buffer) across cores; the paper's coverage numbers are
	// computed from these.
	Fetch FetchStats
	// MPKI is effective misses per kilo-instruction.
	MPKI float64
	// Pf aggregates prefetcher bookkeeping across cores.
	Pf prefetch.Stats

	// Traffic per message class, and hop counts for energy estimation.
	Traffic [noc.NumClasses]int64
	Hops    [noc.NumClasses]int64

	// Sampled carries the per-metric error bounds of a sampled run
	// (interval count, standard errors, confidence intervals); it is
	// nil for exact runs. When set, every other field aggregates the
	// measured detailed intervals only.
	Sampled *SampleStats
}

func subCache(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Hits:             a.Hits - b.Hits,
		Misses:           a.Misses - b.Misses,
		PrefetchHits:     a.PrefetchHits - b.PrefetchHits,
		Inserts:          a.Inserts - b.Inserts,
		Evictions:        a.Evictions - b.Evictions,
		PrefetchInserted: a.PrefetchInserted - b.PrefetchInserted,
		PrefetchDiscards: a.PrefetchDiscards - b.PrefetchDiscards,
	}
}

func subPf(a, b prefetch.Stats) prefetch.Stats {
	return prefetch.Stats{
		Accesses:        a.Accesses - b.Accesses,
		Misses:          a.Misses - b.Misses,
		CoveredAccesses: a.CoveredAccesses - b.CoveredAccesses,
		CoveredMisses:   a.CoveredMisses - b.CoveredMisses,
		StreamAllocs:    a.StreamAllocs - b.StreamAllocs,
		HistoryReads:    a.HistoryReads - b.HistoryReads,
		HistoryWrites:   a.HistoryWrites - b.HistoryWrites,
		IndexUpdates:    a.IndexUpdates - b.IndexUpdates,
		RecordsWritten:  a.RecordsWritten - b.RecordsWritten,
	}
}

// sinceMark is the counter delta of the open interval, since its
// beginInterval.
func (s *System) sinceMark() measurement {
	d := s.snapshot()
	d.sub(&s.intervalStart)
	return d
}

// resultFromDelta summarizes one window delta (an exact run's whole
// measurement window, or a sampled run's aggregated intervals) into a
// Result.
func (s *System) resultFromDelta(d *measurement) Result {
	n := s.cfg.Cores
	res := Result{
		Label:    s.cfg.Prefetcher.Name(),
		Cores:    n,
		CoreType: s.cfg.CoreType.String(),
		PerCore:  make([]CoreResult, n),
	}
	var stallFracSum float64
	var bpPred, bpMiss int64
	for i := 0; i < n; i++ {
		cr := CoreResult{
			Cycles:       d.cycles[i],
			Instructions: d.instrs[i],
			Records:      d.records[i],
			FetchStall:   d.fetchStall[i],
			BranchStall:  d.branchStall[i],
			L1I:          d.l1[i],
			Fetch:        d.fetch[i],
			Pf:           d.pf[i],
		}
		if cr.Cycles > 0 {
			cr.IPC = float64(cr.Instructions) / float64(cr.Cycles)
			stallFracSum += float64(cr.FetchStall) / float64(cr.Cycles)
		}
		res.PerCore[i] = cr
		res.Instructions += cr.Instructions
		res.Records += cr.Records
		res.Throughput += cr.IPC
		res.L1I = addCache(res.L1I, cr.L1I)
		res.Fetch = addFetch(res.Fetch, cr.Fetch)
		res.Pf.Add(cr.Pf)
		bpPred += d.bpPred[i]
		bpMiss += d.bpMiss[i]
	}
	res.FetchStallFraction = stallFracSum / float64(n)
	if bpPred > 0 {
		res.BranchAccuracy = 1 - float64(bpMiss)/float64(bpPred)
	} else {
		res.BranchAccuracy = 1
	}
	if res.Instructions > 0 {
		res.MPKI = float64(res.Fetch.Misses) / float64(res.Instructions) * 1000
	}
	res.Traffic = d.traffic
	res.Hops = d.hops
	return res
}

func addCache(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Hits:             a.Hits + b.Hits,
		Misses:           a.Misses + b.Misses,
		PrefetchHits:     a.PrefetchHits + b.PrefetchHits,
		Inserts:          a.Inserts + b.Inserts,
		Evictions:        a.Evictions + b.Evictions,
		PrefetchInserted: a.PrefetchInserted + b.PrefetchInserted,
		PrefetchDiscards: a.PrefetchDiscards + b.PrefetchDiscards,
	}
}

// AccessCoverage and MissCoverage expose the prediction-mode coverages.
func (r Result) AccessCoverage() float64 { return r.Pf.AccessCoverage() }

// MissCoverage returns the prediction-mode miss coverage.
func (r Result) MissCoverage() float64 { return r.Pf.MissCoverage() }
