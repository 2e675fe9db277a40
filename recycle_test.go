package shift

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"shift/internal/core"
	"shift/internal/freelist"
	"shift/internal/sim"
	"shift/internal/trace"
	"shift/internal/workload"
)

// The tests below pin the System lifecycle (ARCHITECTURE.md "System
// lifecycle"): a finished cell's tables are recycled, a failed cell's
// never are, and a recycled table is indistinguishable from a new one —
// whatever ran before, a cell's result is the one a fresh process gives.

// g12Designs are the six designs of the benchmark's grid: the baseline
// plus the figures' comparison set.
var g12Designs = append([]Design{DesignBaseline}, FigureDesigns()...)

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// freshResult runs cfg with the free lists emptied first: the result a
// fresh process would compute.
func freshResult(t *testing.T, cfg Config) RunResult {
	t.Helper()
	emptyFreeLists()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// failingSource hands out the readers of a real workload, except that
// core 1's fails — by panicking or by running dry — after `after`
// records, in the middle of the run.
type failingSource struct {
	w      *workload.Workload
	after  int64
	panics bool
}

func (s failingSource) NewCoreReader(core int) (trace.Reader, error) {
	r := s.w.NewCoreReader(core)
	if core != 1 {
		return r, nil
	}
	return &failingReader{Reader: r, left: s.after, panics: s.panics}, nil
}

type failingReader struct {
	trace.Reader
	left   int64
	panics bool
}

func (r *failingReader) Next() (trace.Record, error) {
	if r.left--; r.left < 0 {
		if r.panics {
			panic("recycle test: reader panicked mid-run")
		}
		return trace.Record{}, io.EOF
	}
	return r.Reader.Next()
}

// TestFailedCellIsNotRecycled is the containment rule: a System whose
// run panicked (the engine recovers and the process lives on) or
// returned an error is dropped to the collector, never handed back —
// and the cells that follow compute exactly what a fresh process would.
func TestFailedCellIsNotRecycled(t *testing.T) {
	clean := func(d Design) Config {
		cfg := DefaultRunConfig("OLTP Oracle", d)
		cfg.Cores, cfg.WarmupRecords, cfg.MeasureRecords = 4, 500, 500
		return cfg
	}
	want := make(map[Design]RunResult)
	for _, d := range g12Designs {
		want[d] = freshResult(t, clean(d))
	}
	freshBytes := allocatedBy(func() { freshResult(t, clean(DesignSHIFT)) })

	wp, err := workload.ByName("OLTP Oracle")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Cached(wp)
	if err != nil {
		t.Fatal(err)
	}
	for _, panics := range []bool{true, false} {
		e := NewEngine(1, nil)
		e.runBatch = func(cfgs []Config) ([]RunResult, error) {
			spec, err := cfgs[0].spec()
			if err != nil {
				return nil, err
			}
			spec.Source = failingSource{w: w, after: 700, panics: panics}
			res, err := sim.Run(spec)
			return []RunResult{fromSim(res, cfgs[0].Workload)}, err
		}
		emptyFreeLists()
		_, err := e.RunOne(clean(DesignSHIFT))
		var pe *PanicError
		var se *sim.StreamShortError
		switch {
		case panics && !errors.As(err, &pe):
			t.Fatalf("panicking reader: error %v, want *PanicError", err)
		case !panics && !errors.As(err, &se):
			t.Fatalf("dry reader: error %v, want *sim.StreamShortError", err)
		}
		// Had the failed System's tables been handed back, this cell —
		// the same shape — would have built on them and allocated a
		// sliver of what a construction on empty free lists does.
		var got RunResult
		bytes := allocatedBy(func() { got, err = Run(clean(DesignSHIFT)) })
		if err != nil {
			t.Fatal(err)
		}
		if bytes < freshBytes/2 {
			t.Errorf("panics=%v: the cell after the failed one allocated %d B, a fresh construction %d B: the failed System was recycled",
				panics, bytes, freshBytes)
		}
		if !reflect.DeepEqual(got, want[DesignSHIFT]) {
			t.Errorf("panics=%v: SHIFT after the failed cell differs from a fresh process's result", panics)
		}
		for _, d := range g12Designs {
			got, err := Run(clean(d))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[d]) {
				t.Errorf("panics=%v: %s after the failed cell differs from a fresh process's result", panics, d)
			}
		}
	}
}

// TestResultsIndependentOfRecycling is the order-independence property:
// for every design, exact and sampled, in a batch (the engine's grid) and
// alone (Run), plus a consolidated mix and a phase-sequenced spec source,
// the result computed after a shuffled prefix of differently shaped
// cells — other core counts, history sizes and designs, whose tables now
// fill the free lists — equals the result computed with the free lists
// emptied. The engine runs four batches at a time, so under -race this
// also exercises concurrent hand-back and take-out.
func TestResultsIndependentOfRecycling(t *testing.T) {
	mixID, err := LoadSpec([]byte(`{"name": "recycle-mix", "mix": [
		{"name": "oltp", "cores": 2, "workload": {"base": "OLTP DB2"}},
		{"name": "search", "cores": 2, "workload": {"base": "Web Search", "scale": 0.5}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	phasedID, err := LoadSpec([]byte(`{"name": "recycle-phases", "seed": 7, "phases": [
		{"records": 700, "workload": {"base": "Web Search", "footprint_bytes": 262144}},
		{"records": 700, "workload": {"base": "DSS Qry 2", "scale": 0.25}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	shape := func(workloadName string, d Design, cores int) Config {
		cfg := DefaultRunConfig(workloadName, d)
		cfg.Cores, cfg.WarmupRecords, cfg.MeasureRecords = cores, 400, 2000
		return cfg
	}
	sampling := Sampling{Period: 4, IntervalRecords: 100}

	// The cells under test, and what a fresh process computes for each.
	var targets []Cell
	for d := DesignBaseline; d <= DesignTIFS; d++ {
		exact := shape("OLTP Oracle", d, 4)
		sampled := exact
		sampled.Sampling = sampling
		targets = append(targets, cell(exact), cell(sampled, "sampled"))
	}
	targets = append(targets, cell(shape(mixID, DesignSHIFT, 4)), cell(shape(phasedID, DesignPIF32K, 4)))
	want := make([]RunResult, len(targets))
	for i, c := range targets {
		want[i] = freshResult(t, c.Config)
	}

	// Differently shaped cells to run first.
	var prefix []Cell
	for i, cores := range []int{2, 8, 16} {
		for d := DesignBaseline; d <= DesignTIFS; d++ {
			cfg := shape("Web Search", d, cores)
			cfg.HistEntries = []int{0, 1024, 4096}[(i+int(d))%3]
			cfg.Seed = int64(cores)
			prefix = append(prefix, cell(cfg))
		}
	}

	for seed := int64(1); seed <= 2; seed++ {
		rand.New(rand.NewSource(seed)).Shuffle(len(prefix), func(i, j int) {
			prefix[i], prefix[j] = prefix[j], prefix[i]
		})
		e := NewEngine(4, nil)
		got, err := e.RunAll(append(append([]Cell(nil), prefix...), targets...))
		if err != nil {
			t.Fatal(err)
		}
		got = got[len(prefix):]
		for i, c := range targets {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("seed %d: %s in the grid differs from the result on emptied free lists", seed, c.Label)
			}
			alone, err := Run(c.Config)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(alone, want[i]) {
				t.Errorf("seed %d: %s run alone differs from the result on emptied free lists", seed, c.Label)
			}
		}
		if st := e.Stats(); st.Batched == 0 {
			t.Error("no target ran in a batch of two or more")
		}
	}
}

// hostBytes returns what the storage cfg models costs the host in its
// run: 4 B a line of LLC (its stack word) and 4 more for virtualized
// SHIFT (the tag-extension pointer), 12 B a line of L1-I (tag, recency
// stamp), 8 B a history record the run can write (a history appends at
// most one a round, so at most the window's records of its capacity) and
// 8 B an index entry (internal/cache's TestHostBytesPerModelledLine and
// TestICacheHostBytes; internal/history's TestBufferHostBytes and
// TestIndexTableHostBytes).
func hostBytes(t *testing.T, cfg Config) uint64 {
	t.Helper()
	rs, err := cfg.spec()
	if err != nil {
		t.Fatal(err)
	}
	sc := rs.Config
	window := int(rs.WarmupRecords + rs.MeasureRecords)
	tables := func(histEntries, indexEntries int) int { return min(histEntries, window)*8 + indexEntries*8 }
	llcLines := sc.Mesh.Tiles() * (sc.LLCBankBytes / trace.BlockBytes)
	n := llcLines*4 + sc.Cores*(sc.L1I.SizeBytes/sc.L1I.BlockBytes)*12
	if p := sc.Prefetcher; p.Kind == sim.KindHistory {
		switch h := p.History; {
		case h.Variant == core.Virtualized:
			n += llcLines*4 + tables(h.HistEntries, 0) // the index is the LLC's pointers
		case p.PerCore:
			n += sc.Cores * tables(h.HistEntries, h.IndexEntries)
		default:
			n += tables(h.HistEntries, h.HistEntries)
		}
	}
	return uint64(n)
}

// TestEmptyFreeListsEmpties checks the test hook the tests around it
// lean on: after it, a construction allocates what the modelled
// hardware holds (without it, next to nothing: see
// TestCellFixedBytesBounded).
func TestEmptyFreeListsEmpties(t *testing.T) {
	cfg := cellFixedConfig(DesignSHIFT, 4)
	run := func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	run()
	emptyFreeLists()
	if floor := hostBytes(t, cfg); allocatedBy(run) < floor {
		t.Errorf("a cell on emptied free lists allocated less than the hierarchy it models (%d B)", floor)
	}
}

// TestSystemFootprint is the footprint gate of a whole System: on
// emptied free lists a 16-core cell of each G12 design allocates the
// storage it models at the host bytes per line, record and entry that
// hostBytes prices, plus at most 400 KB for everything else (sixteen
// cores' predictors, prefetch buffers, MSHRs and stream chunks: 345 KB
// for Baseline, 378 KB for PIF_32K). A duplicate array anywhere in the
// hierarchy breaks it.
func TestSystemFootprint(t *testing.T) {
	for _, d := range g12Designs {
		cfg := cellFixedConfig(d, 16)
		run := func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
		run() // build the workload graph, which outlives the cell
		emptyFreeLists()
		modelled := hostBytes(t, cfg)
		got, limit := allocatedBy(run), modelled+400<<10
		t.Logf("%s: %d B allocated, %d B of modelled storage", d, got, modelled)
		if got > limit {
			t.Errorf("%s: a 16-core System allocates %d B, limit %d B (%d B of modelled storage)", d, got, limit, modelled)
		}
	}
}

// TestOneBlockBatchFootprint is the footprint gate of a batch whose
// window fits one lockstep block — the shape of a job's cells in the
// service (a workload's six designs over 500 + 500 records on 4 cores):
// the members run one after another, each on the tables the one before
// handed back, so on emptied free lists the whole batch allocates the
// cache hierarchy once, each design's own history and index tables (an
// index table is recycled only into one of its shape, a history buffer
// into one of its allocated length — here every history's is the
// 1,000-record window, so later members take earlier ones'; SHIFT's index
// is its LLC pointers, which it adds to the banks handed on) and at most a
// quarter of a megabyte for everything else (the log, prefetch buffers
// and MSHRs; the five followers' L1-I replicas are one set of tables
// handed on, and the lead keeps no second copy of its tags). It allocates
// ≈ 1.90 MB (1,904,984 B, a 32 KB log of record words among it), 51 KB
// under the 1.96 MB limit.
// Members kept alive side by side allocate a hierarchy each — six LLCs
// for one, twice this limit.
func TestOneBlockBatchFootprint(t *testing.T) {
	holdFreeLists(t)
	var cfgs []Config
	for _, d := range g12Designs {
		cfg := DefaultRunConfig("OLTP Oracle", d)
		cfg.Cores, cfg.WarmupRecords, cfg.MeasureRecords = 4, 500, 500
		cfgs = append(cfgs, cfg)
	}
	// Baseline models the hierarchy and nothing else.
	hierarchy := hostBytes(t, cfgs[0])
	limit, sum := hierarchy+256<<10, uint64(0)
	for _, cfg := range cfgs {
		limit += hostBytes(t, cfg) - hierarchy
		sum += hostBytes(t, cfg)
	}
	run := func() {
		if _, err := RunBatch(cfgs); err != nil {
			t.Fatal(err)
		}
	}
	run() // build the workload graph, which outlives the batch
	// TotalAlloc is process-wide, so whatever else allocates meanwhile can
	// only add to a reading: the least of three batches, each on emptied
	// free lists, is the batch's own.
	got := ^uint64(0)
	for range 3 {
		emptyFreeLists()
		got = min(got, allocatedBy(run))
	}
	t.Logf("%d B allocated; one hierarchy is %d B, the six members' modelled storage %d B", got, hierarchy, sum)
	if got > limit {
		t.Errorf("a one-block batch of %d allocates %d B, limit %d B: its members were alive together", len(cfgs), got, limit)
	}
}

// TestBatchSteadyStateBytes is the footprint gate of the lead log: in
// steady state a batch of the six G12 designs over one 16-core workload,
// several lockstep blocks long, exact or sampled, builds its members and
// its log on what the batch before handed back, and allocates at most
// 1 MB. A log allocated anew per batch is 1 MB of record words alone at
// this shape, and every member's tables are more.
func TestBatchSteadyStateBytes(t *testing.T) {
	holdFreeLists(t)
	for _, sampling := range []Sampling{{}, {Period: 4, IntervalRecords: 500}} {
		var cfgs []Config
		for _, d := range g12Designs {
			cfg := DefaultRunConfig("OLTP Oracle", d)
			cfg.Cores, cfg.WarmupRecords, cfg.MeasureRecords = 16, 10000, 10000
			cfg.Sampling = sampling
			cfgs = append(cfgs, cfg)
		}
		run := func() {
			if _, err := RunBatch(cfgs); err != nil {
				t.Fatal(err)
			}
		}
		run() // fill the free lists with this shape
		const batches = 4
		per := allocatedBy(func() {
			for i := 0; i < batches; i++ {
				run()
			}
		}) / batches
		t.Logf("sampling %+v: %d B a batch", sampling, per)
		if limit := uint64(1 << 20); per > limit {
			t.Errorf("sampling %+v: a steady-state batch of %d allocates %d B, limit %d B", sampling, len(cfgs), per, limit)
		}
	}
}

// TestCellFixedBytesBounded keeps an O(capacity) make from creeping back
// onto the per-cell path: in steady state a 1 + 1-record cell of any
// G12 design allocates at most 1/8 of what the cheapest design
// (Baseline) allocated before Systems were recycled — 4.3 MB at 4
// cores, 4.8 MB at 16 (PIF_32K: 7.6 and 17.9 MB).
func TestCellFixedBytesBounded(t *testing.T) {
	holdFreeLists(t)
	for cores, parentBytes := range map[int]uint64{4: 4_300_000, 16: 4_800_000} {
		for _, d := range g12Designs {
			cfg := cellFixedConfig(d, cores)
			run := func() {
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			}
			run() // fill the free lists with this shape
			const cells = 8
			per := allocatedBy(func() {
				for i := 0; i < cells; i++ {
					run()
				}
			}) / cells
			if limit := parentBytes / 8; per > limit {
				t.Errorf("%s, %d cores: a steady-state 1 + 1-record cell allocates %d B, limit %d B", d, cores, per, limit)
			}
		}
	}
}

// sampledGrid is the benchmark's sampled sweep at a shorter window: two
// workloads, each a batch of the six G12 designs on 16 cores, sampled.
func sampledGrid() []Cell {
	var cells []Cell
	for _, w := range []string{"OLTP Oracle", "Web Search"} {
		for _, d := range g12Designs {
			cfg := DefaultRunConfig(w, d)
			cfg.Cores, cfg.WarmupRecords, cfg.MeasureRecords = 16, 2000, 10000
			cfg.Sampling = Sampling{Period: 5, IntervalRecords: 500, WarmupFraction: 0.3}
			cells = append(cells, cell(cfg))
		}
	}
	return cells
}

// batchTables is what one batch of sampledGrid takes from each kind's
// free lists: 16 LLC banks, L1-Is and prefetch buffers per design, a
// predictor per core, the history buffers and index tables of the five
// prefetching designs (PIF_2K and PIF_32K one a core, ZeroLat-SHIFT's
// shared one, SHIFT's history, whose index is its LLC's pointers) and
// the lead log.
var batchTables = map[string]int64{
	"llc_bank": 96, "l1i": 96, "prefetch_buffer": 96,
	"history_buffer": 34, "index_table": 33, "predictor": 16, "lead_log": 1,
}

// tableCounts returns the free lists' counts by kind.
func tableCounts() map[string]freelist.Count {
	m := make(map[string]freelist.Count)
	for _, c := range freelist.Counts() {
		m[c.Kind] = c
	}
	return m
}

// TestRecycledRepetitionBytes: recycling is the program's decision, not
// the collector's. A sampled grid of the benchmark's shape, run five
// times on a new engine each time (as the benchmark does), builds its
// tables in the first repetition only — one batch's worth per engine
// slot — and takes every table of every later one off the free lists,
// whatever the collector did in between. On the benchmark's one-slot
// engine, at GOMAXPROCS 1 and 2, the bytes a repetition allocates repeat
// within 0.5 % from the second repetition on. (On two slots the two
// batches' lead logs trade workloads as the batches happen to finish,
// and a log's lists grow by append the first time it serves the
// workload that fills them more, so only the counts are compared.) With
// sync.Pool lists a repetition rebuilt all of a batch's tables (≈ 14 MB)
// whenever two collections fell between it and the one before.
func TestRecycledRepetitionBytes(t *testing.T) {
	holdFreeLists(t)
	cells := sampledGrid()
	for _, run := range []struct{ procs, slots int }{{1, 1}, {2, 1}, {2, 2}} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(run.procs))
			emptyFreeLists()
			var steady uint64
			for rep := 0; rep < 5; rep++ {
				before := tableCounts()
				bytes := allocatedBy(func() {
					if _, err := NewEngine(run.slots, nil).RunAll(cells); err != nil {
						t.Fatal(err)
					}
				})
				after := tableCounts()
				for kind, n := range batchTables {
					fresh, reused := after[kind].Fresh-before[kind].Fresh, after[kind].Reused-before[kind].Reused
					want := int64(0)
					if rep == 0 {
						want = int64(run.slots) * n
					}
					if fresh != want || fresh+reused != 2*n {
						t.Errorf("%+v, repetition %d: %s %d fresh and %d reused, want %d fresh of %d", run, rep, kind, fresh, reused, want, 2*n)
					}
				}
				t.Logf("%+v, repetition %d: %d B allocated", run, rep, bytes)
				switch {
				case run.slots > 1:
				case rep == 1:
					steady = bytes
				case rep > 1 && math.Abs(float64(bytes)-float64(steady)) > 0.005*float64(steady):
					t.Errorf("%+v, repetition %d: %d B allocated, repetition 1 %d B: more than 0.5 %% apart", run, rep, bytes, steady)
				}
			}
		}()
	}
}

// TestTrimmedHeapBytes: the free lists keep a finished batch's tables
// — the whole point — and Trim gives them back. A 16-core batch of the
// six designs leaves ≈ 9 MB on the lists; after Trim the live heap is
// within 256 KB of where it stood before the batch.
func TestTrimmedHeapBytes(t *testing.T) {
	cells := sampledGrid()[:len(g12Designs)]
	run := func() {
		if _, err := NewEngine(1, nil).RunAll(cells); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	holdFreeLists(t)
	run() // the workload's graph, which outlives the batch
	emptyFreeLists()
	before := heap()
	run()
	kept := heap()
	emptyFreeLists()
	after := heap()
	t.Logf("live heap %d B before the batch, %d B with its tables on the lists, %d B after Trim", before, kept, after)
	if kept-before < 8<<20 {
		t.Errorf("the lists keep %d B of a finished 16-core batch, want its tables (over 8 MB)", kept-before)
	}
	if after-before > 256<<10 {
		t.Errorf("after Trim the live heap is %d B over its size before the batch, limit 256 KB", after-before)
	}
}

// TestStoreAnsweredCallTrims: a call the engine answers wholly from its
// store gives the free lists' tables back — a service replaying stored
// results holds no batch's tables — and a call that simulates keeps
// them for the next.
func TestStoreAnsweredCallTrims(t *testing.T) {
	cfg := cellFixedConfig(DesignBaseline, 4)
	e := NewEngine(1, NewResultCache())
	runAll := func() {
		if _, err := e.RunAll([]Cell{cell(cfg)}); err != nil {
			t.Fatal(err)
		}
	}
	// built is how many LLC banks a cell run outside the engine builds.
	built := func() int64 {
		before := tableCounts()["llc_bank"].Fresh
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return tableCounts()["llc_bank"].Fresh - before
	}
	emptyFreeLists()
	all := built()
	runAll() // simulated and stored
	if n := built(); n != 0 {
		t.Errorf("after a call that simulated, a cell built %d LLC banks, want every one reused", n)
	}
	runAll() // answered from the store
	if n := built(); n != all || all == 0 {
		t.Errorf("after a call answered from the store, a cell built %d LLC banks, want all %d anew", n, all)
	}
}
