package sim

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"shift/internal/cache"
	"shift/internal/core"
	"shift/internal/history"
	"shift/internal/noc"
	"shift/internal/trace"
	"shift/internal/workload"
)

// batchDesigns returns one spec per design point of the design table
// (smallDesignSpecs) over the shared test stream, then two with
// deliberate variety in the design-independent degrees of freedom a batch
// must tolerate: seeds, modes, and ElimProb.
func batchDesigns() []RunSpec {
	mk := func(mut func(*Config)) RunSpec {
		cfg := testConfig()
		mut(&cfg)
		return testSpec(cfg)
	}
	var specs []RunSpec
	for _, d := range smallDesignSpecs() {
		specs = append(specs, mk(func(c *Config) { c.Prefetcher = d }))
	}
	return append(specs,
		mk(func(c *Config) { c.Seed = 42; c.ElimProb = 0.5 }),
		mk(func(c *Config) {
			c.Mode = ModePrediction
			c.Prefetcher = PrefetcherSpec{Kind: KindHistory, History: smallSHIFT(core.Virtualized)}
		}),
	)
}

// checkBatchMatchesRun runs specs as one batch and one by one, and
// requires every member's result to equal its standalone Run field for
// field.
func checkBatchMatchesRun(t *testing.T, specs []RunSpec) {
	t.Helper()
	batched, err := RunBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != len(specs) {
		t.Fatalf("%d results for %d specs", len(batched), len(specs))
	}
	for i, spec := range specs {
		solo, err := Run(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if !reflect.DeepEqual(batched[i], solo) {
			t.Errorf("spec %d (%s): batched result differs from Run", i, spec.Config.Prefetcher.Name())
		}
	}
}

// unequalL1Designs is a batch whose second member runs a smaller L1-I
// than the lead — it must keep and step an instruction cache of its own
// — while the third shares the lead's.
func unequalL1Designs() []RunSpec {
	specs := batchDesigns()
	specs = []RunSpec{specs[0], specs[5], specs[3], specs[6]}
	specs[1].Config.L1I = cache.Config{SizeBytes: 16 * 1024, Assoc: 4, BlockBytes: 64}
	specs[3].Config.L1I = cache.Config{SizeBytes: 64 * 1024, Assoc: 2, BlockBytes: 64}
	return specs
}

// wideL1Designs is a batch whose members all run the same fully
// associative L1-I of more ways than a log word can name, which none of
// them can therefore share.
func wideL1Designs() []RunSpec {
	specs := batchDesigns()[3:6]
	for i := range specs {
		specs[i].Config.L1I = cache.Config{SizeBytes: 2 * logMaxWays * 64, Assoc: 2 * logMaxWays, BlockBytes: 64}
	}
	return specs
}

// TestRunBatchMatchesRun is the batched ≡ unbatched differential: every
// design point (plus seed/mode/elim variants) simulated in one batched
// pass must be bit-identical to its standalone Run. The "uniform" batch
// (designs only — equal seeds, no elimination) has every follower replay
// everything the lead decides (records, branch outcomes, data traffic,
// L1-I outcomes); the "mixed" batch adds members that must draw their
// own data traffic, and "unequal-l1" and "wide-l1" members that must step
// their own instruction cache.
func TestRunBatchMatchesRun(t *testing.T) {
	all := batchDesigns()
	for _, tc := range []struct {
		name  string
		specs []RunSpec
	}{
		{"uniform", all[:7]},
		{"mixed", all},
		{"unequal-l1", unequalL1Designs()},
		{"wide-l1", wideL1Designs()},
		// A 500 + 500 window is one lockstep block: the members run one
		// after another, each on the tables the one before handed back.
		{"one-block", windowed(all, 500, 500, Sampling{})},
		{"one-block-unequal-l1", windowed(unequalL1Designs(), 500, 500, Sampling{})},
		// Blocks that span segments: a detailed warmup, its measured
		// interval and the functional gap behind them share a block, and
		// the last block is a whole chunk.
		{"sampled-spanning", windowed(all, 700, 9000, Sampling{Period: 3, IntervalRecords: 1000})},
	} {
		t.Run(tc.name, func(t *testing.T) { checkBatchMatchesRun(t, tc.specs) })
	}
}

// windowed returns specs over a window of warm + meas records under p.
func windowed(specs []RunSpec, warm, meas int64, p Sampling) []RunSpec {
	out := append([]RunSpec(nil), specs...)
	for i := range out {
		out[i].WarmupRecords, out[i].MeasureRecords, out[i].Sampling = warm, meas, p
	}
	return out
}

// TestCutBlocks pins the block rule: pieces are a segment cut at
// batchBlockRounds, whatever the blocks; a block takes pieces across
// segment boundaries up to batchBlockRounds rounds, and none steps in
// detail after a functional piece.
func TestCutBlocks(t *testing.T) {
	shape := func(blocks [][]piece) [][]int64 {
		var out [][]int64
		for _, blk := range blocks {
			var rs []int64
			for _, p := range blk {
				rs = append(rs, p.rounds)
			}
			out = append(out, rs)
		}
		return out
	}
	const B = batchBlockRounds
	for _, tc := range []struct {
		name       string
		p          Sampling
		warm, meas int64
		want       [][]int64
	}{
		{"one-block", Sampling{}, 500, 500, [][]int64{{500, 500}}},
		{"no-warmup", Sampling{}, 0, 500, [][]int64{{500}}},
		{"exact", Sampling{}, B + 10, 2*B + 20, [][]int64{{B}, {10}, {B}, {B}, {20}}},
		{"exact-tail-joins", Sampling{}, B + 10, 20, [][]int64{{B}, {10, 20}}},
		// Period 3 × 1000: head = 700 + gap 1750, then warm 250, interval
		// 1000, gap 1750, ... ; the detailed pair and the gap behind it
		// share a block, which ends where the next detailed warmup begins.
		{"sampled", Sampling{Period: 3, IntervalRecords: 1000}, 700, 9000,
			[][]int64{{2450}, {250, 1000, 1750}, {250, 1000, 1750}, {250, 1000}}},
	} {
		segs := tc.p.segments(tc.warm, tc.meas)
		blocks := cutBlocks(segs)
		if got := shape(blocks); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: blocks %v, want %v", tc.name, got, tc.want)
		}
		// The pieces, in order, are each segment cut at B; Begin and End
		// bracket exactly the measured segments.
		var pieces []piece
		for _, blk := range blocks {
			if n := blockRounds(blk); n > B {
				t.Errorf("%s: a block of %d rounds outgrows the log", tc.name, n)
			}
			for i, p := range blk {
				if i > 0 && blk[i-1].functional && !p.functional {
					t.Errorf("%s: a block steps in detail after a functional piece", tc.name)
				}
			}
			pieces = append(pieces, blk...)
		}
		i := 0
		for _, seg := range segs {
			for off := int64(0); off < seg.rounds; off += B {
				want := piece{segment: seg, begin: seg.measured && off == 0}
				want.rounds = min(seg.rounds-off, B)
				want.end = seg.measured && off+want.rounds == seg.rounds
				if i >= len(pieces) || pieces[i] != want {
					t.Fatalf("%s: piece %d differs from its segment's cut", tc.name, i)
				}
				i++
			}
		}
		if i != len(pieces) {
			t.Errorf("%s: %d pieces for a schedule of %d", tc.name, len(pieces), i)
		}
	}
}

// testRecording collects the first n records of core's test-workload
// stream.
func testRecording(t *testing.T, core, n int) []trace.Record {
	t.Helper()
	w, err := workload.Cached(testWorkload())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.Collect(trace.Limit(w.NewCoreReader(core), int64(n)), n)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// streamVariants are the kinds of record stream a batch can share besides
// one catalog workload: consolidated groups, a phase-sequenced Source,
// and a bounded trace replay that holds exactly the window.
func streamVariants(t *testing.T, warm, meas int64) map[string]func(*RunSpec) {
	t.Helper()
	wlB := testWorkload()
	wlB.Name = "sim-test-B"
	wlB.Seed = 99
	phased, err := workload.NewPhased([]workload.Phase{
		{Params: testWorkload(), Records: 3000},
		{Params: wlB, Records: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	recordings := [][]trace.Record{testRecording(t, 0, int(warm+meas)), testRecording(t, 1, int(warm+meas))}
	replay, err := workload.NewReplay(recordings)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func(*RunSpec){
		"groups": func(s *RunSpec) {
			s.Groups = []core.Group{{Name: "A", Cores: []int{0, 1}}, {Name: "B", Cores: []int{2, 3}}}
			s.GroupWorkloads = []workload.Params{testWorkload(), wlB}
		},
		"phased": func(s *RunSpec) { s.Source = phased },
		"replay": func(s *RunSpec) { s.Source = replay },
	}
}

// TestRunBatchMatchesRunAcrossStreams repeats the differential for all
// seven designs over every other kind of stream, exact and sampled (the
// catalog workload is TestRunBatchMatchesRun's and
// TestRunBatchSampledMatchesRun's).
func TestRunBatchMatchesRunAcrossStreams(t *testing.T) {
	const warm, meas = 10000, 15000
	for name, apply := range streamVariants(t, warm, meas) {
		for _, sampled := range []bool{false, true} {
			mode := "exact"
			if sampled {
				mode = "sampled"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				specs := batchDesigns()[:7]
				for i := range specs {
					specs[i].WarmupRecords, specs[i].MeasureRecords = warm, meas
					apply(&specs[i])
					if sampled {
						specs[i].Sampling = testSampling()
					}
				}
				checkBatchMatchesRun(t, specs)
			})
		}
	}
}

// TestRunBatchMixedPredictors checks the no-shared-bp fallback: members
// with different branch-predictor sizes still batch (the stream is the
// same) and still match their standalone runs exactly.
func TestRunBatchMixedPredictors(t *testing.T) {
	a := testConfig()
	b := testConfig()
	b.BranchPredictorEntries = 4096
	c := testConfig()
	c.Prefetcher = designSpecs()[dPIF2K]
	c.BranchPredictorEntries = 0 // no branch modelling at all
	checkBatchMatchesRun(t, []RunSpec{testSpec(a), testSpec(b), testSpec(c)})
}

// TestRunBatchGroups runs a consolidated (multi-group) batch and
// checks it against standalone runs.
func TestRunBatchGroups(t *testing.T) {
	wlA := testWorkload()
	wlB := testWorkload()
	wlB.Name = "sim-test-B"
	wlB.Seed = 99
	mk := func(mut func(*Config)) RunSpec {
		cfg := testConfig()
		mut(&cfg)
		return RunSpec{
			Config: cfg,
			Groups: []core.Group{
				{Name: "A", Cores: []int{0, 1}},
				{Name: "B", Cores: []int{2, 3}},
			},
			GroupWorkloads: []workload.Params{wlA, wlB},
			WarmupRecords:  10000,
			MeasureRecords: 15000,
		}
	}
	specs := []RunSpec{
		mk(func(c *Config) {}),
		mk(func(c *Config) {
			c.Prefetcher = PrefetcherSpec{Kind: KindHistory, History: smallSHIFT(core.Virtualized)}
		}),
		mk(func(c *Config) { c.Prefetcher = designSpecs()[dPIF2K] }),
	}
	checkBatchMatchesRun(t, specs)
}

// TestRunBatchSingleAndEmpty covers the degenerate batch sizes: none, and
// the batch of one — it and the members of a batch of two must report the
// same Result, and an invalid single spec its own error.
func TestRunBatchSingleAndEmpty(t *testing.T) {
	if rs, err := RunBatch(nil); err != nil || rs != nil {
		t.Fatalf("empty batch: %v, %v", rs, err)
	}
	for _, p := range []Sampling{{}, testSampling()} {
		spec := testSpec(testConfig())
		spec.Sampling = p
		rs, err := RunBatch([]RunSpec{spec})
		if err != nil {
			t.Fatal(err)
		}
		two, err := RunBatch([]RunSpec{spec, spec})
		if err != nil {
			t.Fatal(err)
		}
		if (rs[0].Sampled != nil) != p.Enabled() {
			t.Errorf("sampling %+v: SampleStats attached = %v", p, rs[0].Sampled != nil)
		}
		if !reflect.DeepEqual(rs[0], two[0]) || !reflect.DeepEqual(rs[0], two[1]) {
			t.Errorf("sampling %+v: single-spec batch differs from the members of a batch of two", p)
		}
	}
	invalid := testSpec(testConfig())
	invalid.MeasureRecords = 0
	_, err := RunBatch([]RunSpec{invalid})
	if want := invalid.validate(); err == nil || err.Error() != want.Error() {
		t.Errorf("invalid single spec: error %v, want its own %v", err, want)
	}
}

// TestBatchOfOneBuildsNoLog: the lead log exists for followers to read. A
// batch of one has none, so its System is a standalone one — its
// instruction caches its own — and a Run allocates no more than building
// that System and stepping it block by block by hand does, where a log of
// one lockstep block would add 16 B a record-step.
func TestBatchOfOneBuildsNoLog(t *testing.T) {
	spec := testSpec(testConfig())
	spec.WarmupRecords, spec.MeasureRecords = batchBlockRounds, batchBlockRounds
	b := enterAll(t, []RunSpec{spec})
	if sys := b.systems[0]; b.log != nil || sys.log != nil || sys.lead || sys.l1i[0].Replica() {
		t.Errorf("a batch of one built log %v, lead %v, L1-I replicas %v", sys.log != nil, sys.lead, sys.l1i[0].Replica())
	}
	two := enterAll(t, []RunSpec{spec, spec})
	logBytes := uint64(16 * len(two.log.words))
	if lead, fol := two.systems[0], two.systems[1]; two.log.mirrors == nil || lead.l1i[0] != two.log.mirrors[0] || !fol.l1i[0].Replica() || logBytes == 0 {
		t.Fatal("a batch of two built no log, or its lead does not step the log's L1-Is, or its follower keeps more than tags: the check above proves nothing")
	}

	byHand := func() {
		readers, err := spec.openReaders()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := build(spec.Config, readers, nil, int(spec.WarmupRecords+spec.MeasureRecords))
		if err != nil {
			t.Fatal(err)
		}
		own := batch{systems: []*System{sys}}
		for _, blk := range b.blocks {
			if ran, err := own.runBlock(0, blk); err != nil || ran != blockRounds(blk) {
				t.Fatalf("ran %d of %d rounds, err %v", ran, blockRounds(blk), err)
			}
		}
		sys.release()
	}
	run := func() {
		if _, err := Run(spec); err != nil {
			t.Fatal(err)
		}
	}
	// Least of three: under the race detector sync.Pool drops Puts at
	// random, and a dropped table is allocated again.
	least := func(f func()) uint64 {
		f() // fill the free lists with this shape
		best := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	if hand, got := least(byHand), least(run); got > hand+logBytes/4 {
		t.Errorf("a Run allocates %d B, the same System built by hand %d B (a lead log would be %d B)", got, hand, logBytes)
	}
}

// TestRunBatchRejectsMismatchedStreams asserts incompatible specs are
// refused with the offending index named.
func TestRunBatchRejectsMismatchedStreams(t *testing.T) {
	base := testSpec(testConfig())
	muts := []func(*RunSpec){
		func(s *RunSpec) { s.Workload.Seed++ },
		func(s *RunSpec) { s.Workload.Name = "other" },
		func(s *RunSpec) { s.WarmupRecords++ },
		func(s *RunSpec) { s.MeasureRecords++ },
		func(s *RunSpec) { s.Config.Cores = 2 },
	}
	for i, mut := range muts {
		bad := base
		mut(&bad)
		if _, err := RunBatch([]RunSpec{base, bad}); err == nil {
			t.Errorf("mutation %d: mismatched batch accepted", i)
		}
	}
	invalid := base
	invalid.MeasureRecords = 0
	if _, err := RunBatch([]RunSpec{base, invalid}); err == nil {
		t.Error("invalid spec accepted in batch")
	}
}

// enterAll lays specs out as a batch and builds every member, as walk
// has by the end of a first block that is not also the last.
func enterAll(t *testing.T, specs []RunSpec) *batch {
	t.Helper()
	b, err := newBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	for m := range b.systems {
		if err := b.enter(m); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// lockstep takes b's members, all alive, through blocks one lockstep
// block at a time — the lead, then each follower — and calls check (if
// any) after every block.
func lockstep(t *testing.T, b *batch, blocks [][]piece, check func()) {
	t.Helper()
	for _, blk := range blocks {
		for m := range b.systems {
			if ran, err := b.runBlock(m, blk); err != nil || ran != blockRounds(blk) {
				t.Fatalf("member %d, block of %d rounds: ran %d, err %v", m, blockRounds(blk), ran, err)
			}
		}
		if check != nil {
			check()
		}
	}
}

// TestFollowerMirrorTracksLeadL1: at every lockstep block boundary, in
// detailed and functional stepping alike, each shared-L1 follower's
// replicas hold exactly the blocks of the lead's instruction caches, set
// by set and way by way — which is what lets a follower's prefetch filter
// answer as the lead's cache would.
func TestFollowerMirrorTracksLeadL1(t *testing.T) {
	for _, sampled := range []bool{false, true} {
		name := "exact"
		if sampled {
			name = "sampled"
		}
		t.Run(name, func(t *testing.T) {
			specs := batchDesigns()[:7]
			for i := range specs {
				if sampled {
					specs[i].Sampling = testSampling()
				}
			}
			b := enterAll(t, specs)
			lead := b.systems[0]
			l1 := lead.cfg.L1I
			sets := l1.SizeBytes / (l1.Assoc * l1.BlockBytes)
			blocks := 0
			lockstep(t, b, b.blocks, func() {
				blocks++
				resident := 0
				for m, sys := range b.systems[1:] {
					if len(sys.l1i) != len(lead.l1i) {
						t.Fatalf("member %d keeps %d replicas for %d cores", m+1, len(sys.l1i), len(lead.l1i))
					}
					for c, repl := range sys.l1i {
						if !repl.Replica() || lead.l1i[c].Replica() {
							t.Fatalf("member %d core %d: replica %v of a lead's replica %v", m+1, c, repl.Replica(), lead.l1i[c].Replica())
						}
						for si := 0; si < sets; si++ {
							got, want := repl.SetBlocks(si), lead.l1i[c].SetBlocks(si)
							resident += len(want)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("block %d member %d core %d set %d: replica holds %v, lead's L1-I %v",
									blocks, m+1, c, si, got, want)
							}
						}
					}
				}
				if resident == 0 {
					t.Fatalf("block %d: the lead's L1-Is are empty", blocks)
				}
			})
			if blocks < 4 {
				t.Fatalf("schedule ran in %d blocks; the test needs several", blocks)
			}
		})
	}
}

// TestBatchFollowerSharing pins what a follower builds: with the lead's
// configuration it has no stream, no predictor at all and of an
// instruction cache the tags alone — it aliases nothing of the lead's —
// and each facet whose configuration differs from the lead's is its own
// again, without disturbing the others.
func TestBatchFollowerSharing(t *testing.T) {
	base := testSpec(testConfig())
	same := base
	same.Config.Prefetcher = PrefetcherSpec{Kind: KindHistory, History: smallSHIFT(core.Virtualized)}
	l1 := base
	l1.Config.L1I = cache.Config{SizeBytes: 16 * 1024, Assoc: 4, BlockBytes: 64}
	bp := base
	bp.Config.BranchPredictorEntries = 4096
	seed := base
	seed.Config.Seed = 42
	b := enterAll(t, []RunSpec{base, same, l1, bp, seed})
	lead := b.systems[0]
	if !lead.lead || lead.readers == nil || lead.replayL1 || lead.l1i[0].Replica() || lead.bp == nil {
		t.Fatal("lead does not read its own streams and step its own L1-I and predictor")
	}
	for m, want := range []struct{ l1, bp, data bool }{
		{true, true, true},
		{false, true, true},
		{true, false, true},
		{true, true, false},
	} {
		f := b.systems[m+1]
		if f.readers != nil {
			t.Errorf("follower %d holds readers of its own", m+1)
		}
		if f.l1i[0].Replica() != want.l1 || (f.bp == nil) != want.bp {
			t.Errorf("follower %d: keeps L1-I tags only %v, no predictor %v, want %v %v", m+1, f.l1i[0].Replica(), f.bp == nil, want.l1, want.bp)
		}
		for c := range lead.l1i {
			if f.l1i[c] == lead.l1i[c] || f.bp != nil && f.bp[c] == lead.bp[c] || f.hot[c].l1i != f.l1i[c] || f.hot[c].bp == lead.bp[c] {
				t.Errorf("follower %d core %d aliases a structure of the lead's", m+1, c)
			}
			if f.l1i[c].Replica() != want.l1 {
				t.Errorf("follower %d core %d: L1-I tags only = %v, want %v", m+1, c, f.l1i[c].Replica(), want.l1)
			}
		}
		if f.replayL1 != want.l1 || f.replayBP != want.bp || f.replayData != want.data {
			t.Errorf("follower %d: replays L1 %v predictor %v data %v, want %v %v %v",
				m+1, f.replayL1, f.replayBP, f.replayData, want.l1, want.bp, want.data)
		}
	}
}

// TestBatchWideL1NotShared: an L1-I of more ways than a log word can name
// is stepped by every member for itself, equal geometry or not.
func TestBatchWideL1NotShared(t *testing.T) {
	b := enterAll(t, wideL1Designs())
	lead := b.systems[0]
	for m, sys := range b.systems {
		if sys.replayL1 || b.log.mirrors != nil || sys.l1i[0].Replica() || m > 0 && sys.l1i[0] == lead.l1i[0] {
			t.Errorf("member %d shares a %d-way L1-I", m, sys.cfg.L1I.Assoc)
		}
	}
}

// opaqueReader hides any Supplier implementation of the wrapped reader.
type opaqueReader struct{ r trace.Reader }

func (o *opaqueReader) Next() (trace.Record, error) { return o.r.Next() }

// opaqueSource hides the Supplier side of a bounded source's readers, so
// a short recording is found by running dry, not by the up-front check.
type opaqueSource struct{ src workload.Source }

func (o opaqueSource) NewCoreReader(c int) (trace.Reader, error) {
	r, err := o.src.NewCoreReader(c)
	return &opaqueReader{r: r}, err
}

// drySource is a Source whose every stream is dry at record 0.
type drySource struct{}

func (drySource) NewCoreReader(int) (trace.Reader, error) {
	return &opaqueReader{r: trace.NewSliceReader(nil)}, nil
}

// TestRunBatchStreamShortMatchesRun: a bounded Source that declares too
// short a supply, or runs dry in the middle of a lockstep block — every
// core or a single one, in the warmup or the measured window, exact or
// sampled — fails a batch with the very StreamShortError its members'
// standalone runs report. (A declared supply of exactly the window runs:
// TestRunBatchMatchesRunAcrossStreams's "replay" streams.)
func TestRunBatchStreamShortMatchesRun(t *testing.T) {
	// recorded replays the first lens[i] records of core i's stream (of
	// core 0's on every core, given one length). A replay declares its
	// supply, so a short one fails up front; source hides the declaration.
	recorded := func(lens ...int) workload.Source {
		recs := make([][]trace.Record, len(lens))
		for i, n := range lens {
			recs[i] = testRecording(t, i, n)
		}
		replay, err := workload.NewReplay(recs)
		if err != nil {
			t.Fatal(err)
		}
		return replay
	}
	source := func(lens ...int) workload.Source { return opaqueSource{recorded(lens...)} }
	for _, tc := range []struct {
		name    string
		src     workload.Source
		sampled bool
		warm    int64
		// want is the error: counts are per phase (records into the
		// phase, of the phase's length), except for the one-core case —
		// found by checkConsumed once the other cores finished — and a
		// declared supply, whose counts are the core's, over the whole
		// window.
		want StreamShortError
	}{
		// A declared supply short of the window fails before a record is
		// stepped, naming the first short core.
		{"validate", recorded(8000), false, 10000, StreamShortError{"validate", 0, 25000, 8000}},
		{"sampled-validate", recorded(9000), true, 10000, StreamShortError{"validate", 0, 25000, 9000}},
		{"measure", source(12000), false, 10000, StreamShortError{"measure", -1, 15000, 2000}},
		{"warmup", source(3000), false, 10000, StreamShortError{"warmup", -1, 10000, 3000}},
		{"one-core", source(50000, 50000, 12000, 50000), false, 10000, StreamShortError{"measure", 2, 25000, 12000}},
		{"sampled-measure", source(12000), true, 10000, StreamShortError{"measure", -1, 15000, 2000}},
		{"sampled-warmup", source(3000), true, 10000, StreamShortError{"warmup", -1, 10000, 3000}},
		// Dry exactly where the measure window starts: nothing of it ran.
		{"measure-start", source(10000), false, 10000, StreamShortError{"measure", -1, 15000, 0}},
		{"sampled-measure-start", source(10000), true, 10000, StreamShortError{"measure", -1, 15000, 0}},
		// No warmup: a stream dry at record 0 ran short in "measure".
		{"no-warmup", drySource{}, false, 0, StreamShortError{"measure", -1, 15000, 0}},
		{"sampled-no-warmup", drySource{}, true, 0, StreamShortError{"measure", -1, 15000, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			specs := batchDesigns()[:7]
			for i := range specs {
				specs[i].Source = tc.src
				specs[i].WarmupRecords, specs[i].MeasureRecords = tc.warm, 15000
				if tc.sampled {
					specs[i].Sampling = testSampling()
				}
			}
			var solo, batched *StreamShortError
			if _, err := Run(specs[0]); !errors.As(err, &solo) {
				t.Fatalf("standalone: error %v, want *StreamShortError", err)
			}
			if _, err := RunBatch(specs); !errors.As(err, &batched) {
				t.Fatalf("batched: error %v, want *StreamShortError", err)
			}
			if *batched != *solo {
				t.Fatalf("batched %+v, standalone %+v", *batched, *solo)
			}
			if *solo != tc.want {
				t.Fatalf("got %+v, want %+v", *solo, tc.want)
			}
		})
	}
}

// TestLeadLogWordRoundTrip packs records at the limits of every field —
// a 34-bit block, a 16-bit retire count, every trace.Kind, the first and
// last L1-I way — with both flag bits in every combination.
func TestLeadLogWordRoundTrip(t *testing.T) {
	for _, blk := range []trace.BlockAddr{0, 1, 0x4000000 /* an application block */, trace.MaxBlockAddr} {
		for _, instrs := range []uint16{1, 2, 0x8000, 0xFFFF} {
			for kind := trace.KindSeq; kind <= trace.KindTrap; kind++ {
				for _, way := range []int{0, 1, logMaxWays - 1} {
					for flags := 0; flags < 4; flags++ {
						rec := trace.Record{Block: blk, Instrs: instrs, Kind: kind}
						mis, hit := flags&1 != 0, flags&2 != 0
						w := packLog(rec, mis, hit, way)
						if got := unpackLog(w); got != rec {
							t.Fatalf("record %+v came back %+v", rec, got)
						}
						if (w&logMispredict != 0) != mis || (w&logHit != 0) != hit || logWay(w) != way {
							t.Fatalf("record %+v: (%v, %v, way %d) came back (%v, %v, way %d)",
								rec, mis, hit, way, w&logMispredict != 0, w&logHit != 0, logWay(w))
						}
					}
				}
			}
		}
	}
}

// FuzzLeadLog covers the four record formats of the lead log. A record
// word uses all 64 bits, so every word is a record and what the lead
// decided about it: unpacking and repacking is the identity and every
// field comes back in range. Probe lists of any lengths — empty, a
// whole stretch long — written back to back come back one by one, each
// with its own offsets, and the cursor ends where the writer did. Region
// words at the limits of every field — trigger, vector, offset — and drawn
// from the inputs come back as packed, and region lists of any lengths, up
// to a full stretch's with a record per access, written back to back into
// their stretches' data slots come back intact. An interval mark carries
// whatever counters the lead read, for any number of cores, and its data
// traffic pair once: followers of every facet combination, taking the
// block's marks in order, get exactly the lead's counters for the facets
// they replay — the data class's messages and hops for the data traffic —
// and keep their own for the rest.
func FuzzLeadLog(f *testing.F) {
	f.Add(uint64(0), int64(0), int64(0), uint8(1))
	f.Add(^uint64(0), int64(-1), int64(1)<<62, uint8(16))
	f.Add(packLog(trace.Record{Block: 0x4000000, Instrs: 7, Kind: trace.KindCall}, true, false, 3), int64(12345), int64(678), uint8(4))
	f.Fuzz(func(t *testing.T, w uint64, a, b int64, cores uint8) {
		rec := unpackLog(w)
		if rec.Block > trace.MaxBlockAddr || logWay(w) >= logMaxWays {
			t.Fatalf("word %#x: block %#x, way %d out of range", w, rec.Block, logWay(w))
		}
		if got := packLog(rec, w&logMispredict != 0, w&logHit != 0, logWay(w)); got != w {
			t.Fatalf("word %#x repacks to %#x", w, got)
		}

		n := int(cores%16) + 1
		lg := &leadLog{}

		// One list per core, as a functional piece leaves them: lengths and
		// offsets drawn from the inputs, the last a full stretch's.
		rng := trace.NewRNG(a ^ b)
		lists := make([][]uint16, n)
		for c := range lists {
			k := rng.Intn(64) * rng.Intn(3)
			if c == n-1 {
				k = batchBlockRounds
			}
			at := lg.openProbes()
			for i := 0; i < k; i++ {
				off := uint16(rng.Intn(batchBlockRounds))
				lists[c] = append(lists[c], off)
				lg.probes = append(lg.probes, off)
			}
			if got := lg.closeProbes(at); !slices.Equal(got, lists[c]) {
				t.Fatalf("core %d: the writer closed a list of %d offsets as one of %d", c, len(lists[c]), len(got))
			}
		}
		pos := 0
		for c, want := range lists {
			var got []uint16
			if got, pos = lg.probesAt(pos); !slices.Equal(got, want) {
				t.Fatalf("core %d: a list of %d offsets came back as %d: %v, want %v", c, len(want), len(got), got, want)
			}
		}
		if pos != len(lg.probes) {
			t.Fatalf("probe cursor at %d of %d after the last list", pos, len(lg.probes))
		}

		regionTrip := func(r history.Region, at int) {
			if gr, gat := unpackRegion(packRegion(r, at)); gr != r || gat != at {
				t.Fatalf("region %v at %d came back %v at %d", r, at, gr, gat)
			}
		}
		for _, trig := range []trace.BlockAddr{0, trace.MaxBlockAddr, trace.BlockAddr(w) & trace.MaxBlockAddr} {
			for _, vec := range []uint16{0, 1<<(history.MaxRegionSpan-1) - 1, uint16(a) & (1<<(history.MaxRegionSpan-1) - 1)} {
				for _, at := range []int{0, batchBlockRounds - 1, int(uint64(b) % batchBlockRounds)} {
					regionTrip(history.Region{Trigger: trig, Vec: vec}, at)
				}
			}
		}
		// One list per core, each over a builder of its own span stepped
		// through blocks drawn from the inputs, the last a full stretch's
		// with a record completed on every access, written as produce
		// writes them: the records into the stretch's data slots, back to
		// back with the next stretch's. Each comes back intact, after all
		// are written.
		lg.data = make([]uint64, 0, n*64+batchBlockRounds)
		wants := make([][]uint64, n)
		for c := range wants {
			bld := history.MustNewBuilder(2 + rng.Intn(history.MaxRegionSpan-1))
			base := trace.MaxBlockAddr - 63 - trace.BlockAddr(rng.Intn(1<<20))
			for i := rng.Intn(4); i > 0; i-- {
				bld.Add(base + trace.BlockAddr(rng.Intn(64)))
			}
			stretch := 1 + rng.Intn(64)
			if c == n-1 {
				stretch = batchBlockRounds
			}
			first := len(lg.data)
			lg.data = lg.data[:first+stretch]
			list := regionList{start: *bld, recs: lg.data[first : first : first+stretch]}
			for at := 0; at < stretch; at++ {
				blk := base + trace.BlockAddr(rng.Intn(64))
				if c == n-1 {
					blk = trace.BlockAddr(at * history.MaxRegionSpan)
				}
				if r, done := bld.Add(blk); done {
					list.recs = append(list.recs, packRegion(r, at))
				}
			}
			list.end = *bld
			lg.regions = append(lg.regions, list)
			wants[c] = slices.Clone(list.recs)
		}
		if got := len(wants[n-1]); got < batchBlockRounds-1 {
			t.Fatalf("a stretch of %d accesses, each outside the last's region, completed %d records", batchBlockRounds, got)
		}
		for c, want := range wants {
			if got := lg.regions[c].recs; !slices.Equal(got, want) {
				t.Fatalf("core %d: a list of %d records came back as %d", c, len(want), len(got))
			}
		}
		lead := &System{cfg: Config{Cores: n}, log: lg, lead: true}
		// Two marks, as a block with one measured interval holds.
		marks := [2]measurement{newMeasurement(n), newMeasurement(n)}
		for k := range marks {
			for i := 0; i < n; i++ {
				v := a + int64(k)*b + int64(i)
				marks[k].l1[i] = cache.Stats{Hits: v, Misses: v ^ b, Inserts: -v, Evictions: b, PrefetchDiscards: v + b}
				marks[k].bpPred[i], marks[k].bpMiss[i] = v-b, b-v
			}
			for c := range marks[k].traffic {
				marks[k].traffic[c], marks[k].hops[c] = a^int64(k*noc.NumClasses+c), b-int64(k)*a+int64(c)
			}
			lead.shareMark(&marks[k])
		}
		if len(lg.marks) != 2*n || len(lg.traffic) != 2 {
			t.Fatalf("%d cores, two marks: the log holds %d core entries and %d traffic pairs", n, len(lg.marks), len(lg.traffic))
		}
		for facets := 0; facets < 8; facets++ {
			fol := &System{cfg: Config{Cores: n}, log: lg, replayL1: facets&1 != 0, replayBP: facets&2 != 0, replayData: facets&4 != 0}
			for k := range marks {
				own := newMeasurement(n)
				for i := 0; i < n; i++ {
					own.l1[i].Hits, own.bpPred[i], own.bpMiss[i] = 1, 2, 3
				}
				for c := range own.traffic {
					own.traffic[c], own.hops[c] = int64(4+c), int64(5+c)
				}
				want := newMeasurement(n)
				copy(want.l1, own.l1)
				copy(want.bpPred, own.bpPred)
				copy(want.bpMiss, own.bpMiss)
				want.traffic, want.hops = own.traffic, own.hops
				if fol.replayL1 {
					copy(want.l1, marks[k].l1)
				}
				if fol.replayBP {
					copy(want.bpPred, marks[k].bpPred)
					copy(want.bpMiss, marks[k].bpMiss)
				}
				if fol.replayData {
					want.traffic[noc.DemandData] = marks[k].traffic[noc.DemandData]
					want.hops[noc.DemandData] = marks[k].hops[noc.DemandData]
				}
				fol.shareMark(&own)
				if !reflect.DeepEqual(own, want) {
					t.Fatalf("facets %03b, mark %d: follower took %+v, want %+v", facets, k, own, want)
				}
			}
			if fol.markPos != len(lg.marks) {
				t.Fatalf("facets %03b: cursor at %d of %d", facets, fol.markPos, len(lg.marks))
			}
		}
	})
}
