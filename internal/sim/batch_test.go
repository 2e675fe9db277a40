package sim

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"shift/internal/cache"
	"shift/internal/core"
	"shift/internal/cpu"
	"shift/internal/freelist"
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
		mk(func(c *Config) { c.Seed = 42; c.ElimProb = 0.5; c.Prefetcher.Label = "Baseline" }),
		mk(func(c *Config) {
			c.Mode = ModePrediction
			c.Prefetcher = PrefetcherSpec{Kind: KindHistory, History: smallSHIFT(core.Virtualized), Label: "SHIFT"}
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
			t.Errorf("spec %d (%s): batched result differs from Run", i, spec.Config.Prefetcher.Label)
		}
	}
}

// checkBatchRefused requires RunBatch to refuse specs with an error that
// names field.
func checkBatchRefused(t *testing.T, specs []RunSpec, field string) {
	t.Helper()
	if _, err := RunBatch(specs); err == nil || !strings.Contains(err.Error(), field) {
		t.Errorf("batch: error %v, want one naming %s", err, field)
	}
}

// unequalL1Designs is a batch whose second and fourth members run
// another L1-I than the lead.
func unequalL1Designs() []RunSpec {
	specs := batchDesigns()
	specs = []RunSpec{specs[0], specs[5], specs[3], specs[6]}
	specs[1].Config.L1I = cache.Config{SizeBytes: 16 * 1024, Assoc: 4, BlockBytes: 64}
	specs[3].Config.L1I = cache.Config{SizeBytes: 64 * 1024, Assoc: 2, BlockBytes: 64}
	return specs
}

// wideL1Designs is a batch whose members all run the widest L1-I a log
// word can name: fully associative, of logMaxWays ways.
func wideL1Designs() []RunSpec {
	specs := batchDesigns()[3:6]
	for i := range specs {
		specs[i].Config.L1I = cache.Config{SizeBytes: logMaxWays * 64, Assoc: logMaxWays, BlockBytes: 64}
	}
	return specs
}

// TestRunBatchMatchesRun is the batched ≡ unbatched differential: every
// design point (plus seed/mode/elim variants) simulated in one batched
// pass must be bit-identical to its standalone Run. Every follower replays
// the lead's records, branch outcomes and L1-I outcomes; the "uniform"
// batch (designs only — equal seeds, no elimination) has every follower
// replay the data traffic too, the "mixed" batch adds members that must
// draw their own, and "wide-l1" members whose log words name every way of
// the widest L1-I a batch takes. A batch of unequal L1-Is is refused.
func TestRunBatchMatchesRun(t *testing.T) {
	all := batchDesigns()
	for _, tc := range []struct {
		name    string
		specs   []RunSpec
		refused string // the field the batch is refused for, if any
	}{
		{"uniform", all[:7], ""},
		{"mixed", all, ""},
		{"unequal-l1", unequalL1Designs(), "L1I"},
		{"wide-l1", wideL1Designs(), ""},
		// A 500 + 500 window is one lockstep block: the members run one
		// after another, each on the tables the one before handed back.
		{"one-block", windowed(all, 500, 500, Sampling{}), ""},
		// Blocks that span segments: a detailed warmup, its measured
		// interval and the functional gap behind them share a block, and
		// the last block is a whole chunk.
		{"sampled-spanning", windowed(all, 700, 9000, Sampling{Period: 3, IntervalRecords: 1000}), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.refused != "" {
				checkBatchRefused(t, tc.specs, tc.refused)
				return
			}
			checkBatchMatchesRun(t, tc.specs)
		})
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
// batchBlockRounds — a measured one, when a probe asks for reporting
// intervals, at the interval length, each piece an interval of its own —
// whatever the blocks; a block takes pieces across segment boundaries up
// to batchBlockRounds rounds, and none steps in detail after a functional
// piece.
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
	sixteen500 := make([]int64, 16)
	for i := range sixteen500 {
		sixteen500[i] = 500
	}
	for _, tc := range []struct {
		name       string
		p          Sampling
		warm, meas int64
		report     int64
		want       [][]int64
	}{
		{"one-block", Sampling{}, 500, 500, 0, [][]int64{{500, 500}}},
		{"no-warmup", Sampling{}, 0, 500, 0, [][]int64{{500}}},
		{"exact", Sampling{}, B + 10, 2*B + 20, 0, [][]int64{{B}, {10}, {B}, {B}, {20}}},
		{"exact-tail-joins", Sampling{}, B + 10, 20, 0, [][]int64{{B}, {10, 20}}},
		// Reporting intervals cut the measured segment only, and a block
		// takes as many as fit.
		{"exact-reported", Sampling{}, 700, 1200, 500, [][]int64{{700, 500, 500, 200}}},
		{"exact-reported-blocks", Sampling{}, 0, 2 * B, 500, [][]int64{sixteen500, sixteen500, {2*B - 32*500}}},
		// Period 3 × 1000: head = 700 + gap 1750, then warm 250, interval
		// 1000, gap 1750, ... ; the detailed pair and the gap behind it
		// share a block, which ends where the next detailed warmup begins.
		{"sampled", Sampling{Period: 3, IntervalRecords: 1000}, 700, 9000, 0,
			[][]int64{{2450}, {250, 1000, 1750}, {250, 1000, 1750}, {250, 1000}}},
	} {
		segs := tc.p.segments(tc.warm, tc.meas)
		blocks := cutBlocks(segs, tc.report)
		if got := shape(blocks); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: blocks %v, want %v", tc.name, got, tc.want)
		}
		// The pieces, in order, are each segment cut at B, or at the
		// reporting interval; Begin and End bracket exactly the measured
		// segments, or each reporting interval.
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
			step, each := int64(B), seg.measured && tc.report > 0
			if each {
				step = tc.report
			}
			for off := int64(0); off < seg.rounds; off += step {
				want := piece{segment: seg, begin: seg.measured && (off == 0 || each)}
				want.rounds = min(seg.rounds-off, step)
				want.end = seg.measured && (off+want.rounds == seg.rounds || each)
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

// TestRunBatchMixedPredictors: members with another branch-predictor size
// than the lead's, or no branch modelling at all, are refused — every
// follower replays the lead's predictor — and each still runs alone.
func TestRunBatchMixedPredictors(t *testing.T) {
	a := testConfig()
	for _, entries := range []int{4096, 0} {
		b := testConfig()
		b.Prefetcher = designSpecs()[dPIF2K]
		b.BranchPredictorEntries = entries
		checkBatchRefused(t, []RunSpec{testSpec(a), testSpec(b)}, "BranchPredictorEntries")
		if _, err := Run(testSpec(b)); err != nil {
			t.Errorf("%d predictor entries alone: %v", entries, err)
		}
	}
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
	if want := invalid.Validate(); err == nil || err.Error() != want.Error() {
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
	// Least of three: TotalAlloc is process-wide, so whatever else
	// allocates meanwhile can only add to a reading.
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

// TestSampledLeadLogFootprint is the footprint gate of a sampled batch's
// lead log: a 16-core batch of the six designs whose followers read the
// functional stretches' lists alone, under the policy of the benchmark's
// sampled sweep (one 500-record interval in 40, warmup fraction 0.3),
// holds no more words than its longest block's detailed rounds × cores —
// 650 × 16, not the 8,192 × 16 of a log that keeps every functional
// record — and the batch runs within it.
func TestSampledLeadLogFootprint(t *testing.T) {
	p, err := workload.ByName("OLTP Oracle")
	if err != nil {
		t.Fatal(err)
	}
	var specs []RunSpec
	for _, d := range designSpecs()[:dTIFS] {
		cfg := DefaultConfig()
		cfg.Prefetcher = d
		specs = append(specs, RunSpec{Config: cfg, Workload: p, WarmupRecords: 20000, MeasureRecords: 40000,
			Sampling: Sampling{Period: 40, IntervalRecords: 500, WarmupFraction: 0.3}})
	}
	freelist.Trim() // the log is then built for this batch, not taken at a larger size
	b, err := newBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	var detailed int64
	for _, blk := range b.blocks {
		var n int64
		for _, p := range blk {
			if !p.functional {
				n += p.rounds
			}
		}
		detailed = max(detailed, n)
	}
	cores := specs[0].Config.Cores
	if detailed != 650 || cores != 16 {
		t.Fatalf("longest block steps %d rounds in detail on %d cores, want 650 on 16: the gate is not at its shape", detailed, cores)
	}
	if got, limit := len(b.log.words), int(detailed)*cores; got > limit {
		t.Errorf("the lead log holds %d words, limit %d: it keeps functional records no follower reads", got, limit)
	}
	if err := b.walk(); err != nil {
		t.Fatal(err)
	}
}

// TestRunBatchRejectsMismatchedStreams asserts incompatible specs are
// refused with the offending index named, and a member of another system
// with the field it differs in named too.
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
		if _, err := RunBatch([]RunSpec{base, bad}); err == nil || !strings.Contains(err.Error(), "batch spec 1") {
			t.Errorf("mutation %d: mismatched batch: error %v", i, err)
		}
	}
	for field, mut := range map[string]func(*Config){
		"L1I":                    func(c *Config) { c.L1I.SizeBytes *= 2 },
		"LLCBankBytes":           func(c *Config) { c.LLCBankBytes *= 2 },
		"LLCAssoc":               func(c *Config) { c.LLCAssoc *= 2 },
		"Mesh":                   func(c *Config) { c.Mesh.HopCycles++ },
		"BranchPredictorEntries": func(c *Config) { c.BranchPredictorEntries *= 2 },
	} {
		bad := base
		mut(&bad.Config)
		checkBatchRefused(t, []RunSpec{base, bad}, "batch spec 1: "+field+" ")
	}
	// The per-cell fields are free to vary.
	free := base
	free.Config.CoreType, free.Config.Mode, free.Config.ElimProb, free.Config.Seed = cpu.LeanIO, ModePrediction, 0.5, 9
	free.Config.Prefetcher = designSpecs()[dSHIFT]
	if f := systemField(free.Config, base.Config); f != "" {
		t.Errorf("a member of another design, core type, mode, miss elimination and seed differs in system field %s", f)
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
// detailed and functional stepping alike, each follower's
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

// TestBatchFollowerSharing pins what a follower builds: it has no stream,
// no predictor at all and of an instruction cache the tags alone — it
// aliases nothing of the lead's — and it draws its own data traffic
// exactly when its seed or miss elimination differs from the lead's.
func TestBatchFollowerSharing(t *testing.T) {
	base := testSpec(testConfig())
	same := base
	same.Config.Prefetcher = PrefetcherSpec{Kind: KindHistory, History: smallSHIFT(core.Virtualized)}
	seed := base
	seed.Config.Seed = 42
	elim := base
	elim.Config.ElimProb = 0.5
	b := enterAll(t, []RunSpec{base, same, seed, elim})
	lead := b.systems[0]
	if !lead.lead || lead.readers == nil || lead.l1i[0] != b.log.mirrors[0] || lead.l1i[0].Replica() || lead.bp == nil {
		t.Fatal("lead does not read its own streams and step the log's L1-Is and its own predictor")
	}
	for m, data := range []bool{true, false, false} {
		f := b.systems[m+1]
		if f.readers != nil {
			t.Errorf("follower %d holds readers of its own", m+1)
		}
		if f.bp != nil {
			t.Errorf("follower %d builds a predictor", m+1)
		}
		for c := range lead.l1i {
			if f.l1i[c] == lead.l1i[c] || f.hot[c].l1i != f.l1i[c] || f.hot[c].bp != nil {
				t.Errorf("follower %d core %d aliases a structure of the lead's", m+1, c)
			}
			if !f.l1i[c].Replica() {
				t.Errorf("follower %d core %d keeps more of an L1-I than its tags", m+1, c)
			}
		}
		if f.replayData != data {
			t.Errorf("follower %d: replays the data traffic %v, want %v", m+1, f.replayData, data)
		}
	}
}

// TestBatchWideL1NotShared: an L1-I of more ways than a log word can name
// is refused, alone and in a batch, so every batch's followers share the
// lead's; the widest accepted one is TestRunBatchMatchesRun's "wide-l1".
func TestBatchWideL1NotShared(t *testing.T) {
	specs := wideL1Designs()
	for i := range specs {
		specs[i].Config.L1I = cache.Config{SizeBytes: 2 * logMaxWays * 64, Assoc: 2 * logMaxWays, BlockBytes: 64}
	}
	if _, err := Run(specs[0]); err == nil || !strings.Contains(err.Error(), "L1I") {
		t.Errorf("a %d-way L1-I alone: error %v, want one naming L1I", specs[0].Config.L1I.Assoc, err)
	}
	checkBatchRefused(t, specs, "L1I")
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
// field comes back in range. Probe entries at the limits of their block
// and offset and drawn from the inputs come back as packed, and probe
// lists of any lengths — empty, a whole stretch long — written back to
// back come back one by one, each with its own blocks at its own offsets,
// and the cursor ends where the writer did. Region words at the limits of
// every field — trigger, vector, offset — and drawn from the inputs come
// back as packed, and region lists of any lengths, up to a full stretch's
// with a record per access, appended back to back to the log's data come
// back intact. An interval mark carries
// whatever counters the lead read, for any number of cores, and its data
// traffic pair once: followers, taking the block's marks in order, get
// exactly the lead's predictor counters and, when they replay the data
// traffic, the data class's messages and hops, and keep their own for the
// rest.
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

		for _, blk := range []trace.BlockAddr{0, trace.MaxBlockAddr, rec.Block} {
			for _, at := range []int{0, batchBlockRounds - 1, int(uint64(a) % batchBlockRounds)} {
				if gblk, gat := unpackProbe(packProbe(blk, at)); gblk != blk || gat != at {
					t.Fatalf("probe of %#x at %d came back %#x at %d", blk, at, gblk, gat)
				}
			}
		}
		// One list per core, as a functional piece leaves them: lengths,
		// blocks and offsets drawn from the inputs, the last a full
		// stretch's.
		type probe struct {
			blk trace.BlockAddr
			at  int
		}
		rng := trace.NewRNG(a ^ b)
		lists := make([][]probe, n)
		for c := range lists {
			k := rng.Intn(64) * rng.Intn(3)
			if c == n-1 {
				k = batchBlockRounds
			}
			at := lg.openProbes()
			for i := 0; i < k; i++ {
				p := probe{trace.MaxBlockAddr - trace.BlockAddr(rng.Intn(1<<20)), rng.Intn(batchBlockRounds)}
				lists[c] = append(lists[c], p)
				lg.probes = append(lg.probes, packProbe(p.blk, p.at))
			}
			if got := lg.closeProbes(at); len(got) != len(lists[c]) {
				t.Fatalf("core %d: the writer closed a list of %d probes as one of %d", c, len(lists[c]), len(got))
			}
		}
		pos := 0
		for c, want := range lists {
			var list []uint64
			list, pos = lg.probesAt(pos)
			got := make([]probe, len(list))
			for i, w := range list {
				got[i].blk, got[i].at = unpackProbe(w)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("core %d: a list of %d probes came back as %d: %v, want %v", c, len(want), len(got), got, want)
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
		// writes them: the records appended to the log's data, back to back
		// with the next stretch's, which may move the array. Each comes back
		// intact, after all are written.
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
			first, start := len(lg.data), *bld
			for at := 0; at < stretch; at++ {
				blk := base + trace.BlockAddr(rng.Intn(64))
				if c == n-1 {
					blk = trace.BlockAddr(at * history.MaxRegionSpan)
				}
				if r, done := bld.Add(blk); done {
					lg.data = append(lg.data, packRegion(r, at))
				}
			}
			list := regionList{start: start, end: *bld, recs: lg.data[first:]}
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
		for _, data := range []bool{false, true} {
			fol := &System{cfg: Config{Cores: n}, log: lg, replayData: data}
			for k := range marks {
				own := newMeasurement(n)
				for i := 0; i < n; i++ {
					own.bpPred[i], own.bpMiss[i] = 2, 3
				}
				for c := range own.traffic {
					own.traffic[c], own.hops[c] = int64(4+c), int64(5+c)
				}
				want := newMeasurement(n)
				copy(want.bpPred, marks[k].bpPred)
				copy(want.bpMiss, marks[k].bpMiss)
				want.traffic, want.hops = own.traffic, own.hops
				if fol.replayData {
					want.traffic[noc.DemandData] = marks[k].traffic[noc.DemandData]
					want.hops[noc.DemandData] = marks[k].hops[noc.DemandData]
				}
				fol.shareMark(&own)
				if !reflect.DeepEqual(own, want) {
					t.Fatalf("data %v, mark %d: follower took %+v, want %+v", data, k, own, want)
				}
			}
			if fol.markPos != len(lg.marks) {
				t.Fatalf("data %v: cursor at %d of %d", data, fol.markPos, len(lg.marks))
			}
		}
	})
}
