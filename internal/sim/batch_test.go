package sim

import (
	"errors"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"shift/internal/cache"
	"shift/internal/core"
	"shift/internal/pif"
	"shift/internal/tifs"
	"shift/internal/trace"
	"shift/internal/workload"
)

// batchDesigns returns one spec per design point over the shared test
// stream, with deliberate variety in the design-independent degrees of
// freedom a batch must tolerate: seeds, modes, and ElimProb.
func batchDesigns() []RunSpec {
	mk := func(mut func(*Config)) RunSpec {
		cfg := testConfig()
		mut(&cfg)
		return testSpec(cfg)
	}
	specs := []RunSpec{
		mk(func(c *Config) {}),
		mk(func(c *Config) { c.Prefetcher = PrefetcherSpec{Kind: KindNextLine, NextLineDegree: 1} }),
		mk(func(c *Config) { c.Prefetcher = PrefetcherSpec{Kind: KindPIF, PIF: pif.Config2K()} }),
		mk(func(c *Config) { c.Prefetcher = PrefetcherSpec{Kind: KindPIF, PIF: pif.Config32K()} }),
		mk(func(c *Config) { c.Prefetcher = PrefetcherSpec{Kind: KindSHIFT, SHIFT: smallSHIFT(core.Dedicated)} }),
		mk(func(c *Config) { c.Prefetcher = PrefetcherSpec{Kind: KindSHIFT, SHIFT: smallSHIFT(core.Virtualized)} }),
		mk(func(c *Config) { c.Prefetcher = PrefetcherSpec{Kind: KindTIFS, TIFS: tifs.DefaultConfig()} }),
		mk(func(c *Config) { c.Seed = 42; c.ElimProb = 0.5 }),
		mk(func(c *Config) {
			c.Mode = ModePrediction
			c.Prefetcher = PrefetcherSpec{Kind: KindSHIFT, SHIFT: smallSHIFT(core.Virtualized)}
		}),
	}
	return specs
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
	} {
		t.Run(tc.name, func(t *testing.T) { checkBatchMatchesRun(t, tc.specs) })
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
	c.Prefetcher = PrefetcherSpec{Kind: KindPIF, PIF: pif.Config2K()}
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
		mk(func(c *Config) { c.Prefetcher = PrefetcherSpec{Kind: KindSHIFT, SHIFT: smallSHIFT(core.Virtualized)} }),
		mk(func(c *Config) { c.Prefetcher = PrefetcherSpec{Kind: KindPIF, PIF: pif.Config2K()} }),
	}
	checkBatchMatchesRun(t, specs)
}

// TestRunBatchSingleAndEmpty covers the degenerate batch sizes: none, and
// the batch of one — the member a batch of two would lead, and the System
// a caller builds with New and walks with RunMeasured/RunSampled, must
// all report the same Result, and an invalid single spec its own error.
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
		readers, err := spec.openReaders()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := New(spec.Config, readers)
		if err != nil {
			t.Fatal(err)
		}
		own, err := sys.RunSampled(spec.WarmupRecords, spec.MeasureRecords, p)
		if err != nil {
			t.Fatal(err)
		}
		if (rs[0].Sampled != nil) != p.Enabled() {
			t.Errorf("sampling %+v: SampleStats attached = %v", p, rs[0].Sampled != nil)
		}
		if !reflect.DeepEqual(rs[0], two[0]) || !reflect.DeepEqual(rs[0], two[1]) {
			t.Errorf("sampling %+v: single-spec batch differs from the members of a batch of two", p)
		}
		if !reflect.DeepEqual(rs[0], own) {
			t.Errorf("sampling %+v: single-spec batch differs from a caller-built System's walk", p)
		}
	}
	invalid := testSpec(testConfig())
	invalid.MeasureRecords = 0
	_, err := RunBatch([]RunSpec{invalid})
	if want := invalid.Validate(); err == nil || err.Error() != want.Error() {
		t.Errorf("invalid single spec: error %v, want its own %v", err, want)
	}
}

// TestBatchOfOneBuildsNoLog: the lead log and the lead's L1-I mirrors
// exist for followers to read. A batch of one has none, so it is the
// System New returns — and a Run allocates no more than building and
// walking that System by hand does, where a log of one lockstep block
// would add 16 B a record-step.
func TestBatchOfOneBuildsNoLog(t *testing.T) {
	spec := testSpec(testConfig())
	spec.WarmupRecords, spec.MeasureRecords = batchBlockRounds, batchBlockRounds
	b, err := newBatch([]RunSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if sys := b.systems[0]; sys.log != nil || sys.lead || sys.mirrors != nil || sys.hot[0].mirror != nil {
		t.Errorf("a batch of one built log %v, lead %v, mirrors %v", sys.log != nil, sys.lead, sys.mirrors != nil)
	}
	two, err := newBatch([]RunSpec{spec, spec})
	if err != nil {
		t.Fatal(err)
	}
	logBytes := uint64(16 * len(two.systems[0].log.words))
	if two.systems[0].mirrors == nil || logBytes == 0 {
		t.Fatal("a batch of two built no log or no mirrors: the check above proves nothing")
	}

	byHand := func() {
		readers, err := spec.openReaders()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := New(spec.Config, readers)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunMeasured(spec.WarmupRecords, spec.MeasureRecords); err != nil {
			t.Fatal(err)
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

// eachBlock walks b's schedule one lockstep block at a time and calls
// check after every block.
func eachBlock(t *testing.T, b *batch, check func()) {
	t.Helper()
	for _, seg := range b.segs {
		for _, sys := range b.systems {
			sys.applySegment(seg)
		}
		for off := int64(0); off < seg.rounds; off += batchBlockRounds {
			n := min(seg.rounds-off, batchBlockRounds)
			ran, err := b.runLockstep(n)
			if err != nil || ran != n {
				t.Fatalf("block of %d rounds: ran %d, err %v", n, ran, err)
			}
			check()
		}
	}
}

// TestFollowerMirrorTracksLeadL1: at every lockstep block boundary, in
// detailed and functional stepping alike, the lead's tag mirror and each
// shared-L1 follower's hold exactly the blocks of the lead's instruction
// cache, set by set — which is what lets a follower's prefetch filter
// stand in for Cache.Contains.
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
			b, err := newBatch(specs)
			if err != nil {
				t.Fatal(err)
			}
			lead := b.systems[0]
			sets := lead.cfg.L1I.Sets()
			blocks := 0
			eachBlock(t, b, func() {
				blocks++
				for m, sys := range b.systems {
					if len(sys.mirrors) != len(lead.l1i) {
						t.Fatalf("member %d keeps %d mirrors for %d cores", m, len(sys.mirrors), len(lead.l1i))
					}
					for c := range sys.mirrors {
						mir := &sys.mirrors[c]
						for si := 0; si < sets; si++ {
							var got []trace.BlockAddr
							for _, tag := range mir.tags[si*mir.ways : (si+1)*mir.ways] {
								if tag != 0 {
									got = append(got, trace.BlockAddr(tag-1))
								}
							}
							want := lead.l1i[c].SetLRUOrder(si)
							sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
							sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("block %d member %d core %d set %d: mirror holds %v, lead's L1-I %v",
									blocks, m, c, si, got, want)
							}
						}
					}
				}
			})
			if blocks < 4 {
				t.Fatalf("schedule ran in %d blocks; the test needs several", blocks)
			}
		})
	}
}

// TestBatchFollowerSharing pins what a follower builds: with the lead's
// configuration it has no stream, no instruction cache and no predictor
// of its own — its l1i and bp slots are the lead's — and each facet
// whose configuration differs from the lead's is its own again, without
// disturbing the others.
func TestBatchFollowerSharing(t *testing.T) {
	base := testSpec(testConfig())
	same := base
	same.Config.Prefetcher = PrefetcherSpec{Kind: KindSHIFT, SHIFT: smallSHIFT(core.Virtualized)}
	l1 := base
	l1.Config.L1I = cache.Config{SizeBytes: 16 * 1024, Assoc: 4, BlockBytes: 64}
	bp := base
	bp.Config.BranchPredictorEntries = 4096
	seed := base
	seed.Config.Seed = 42
	b, err := newBatch([]RunSpec{base, same, l1, bp, seed})
	if err != nil {
		t.Fatal(err)
	}
	lead := b.systems[0]
	if !lead.lead || lead.readers == nil || lead.replayL1 {
		t.Fatal("lead does not read its own streams and step its own L1-I")
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
		for c := range f.l1i {
			if got := f.l1i[c] == lead.l1i[c]; got != want.l1 {
				t.Errorf("follower %d core %d: L1-I aliases the lead's = %v, want %v", m+1, c, got, want.l1)
			}
			if got := f.bp[c] == lead.bp[c]; got != want.bp {
				t.Errorf("follower %d core %d: predictor aliases the lead's = %v, want %v", m+1, c, got, want.bp)
			}
		}
		if f.replayL1 != want.l1 || f.replayBP != want.bp || f.replayData != want.data {
			t.Errorf("follower %d: replays L1 %v predictor %v data %v, want %v %v %v",
				m+1, f.replayL1, f.replayBP, f.replayData, want.l1, want.bp, want.data)
		}
		if (f.mirrors != nil) != want.l1 {
			t.Errorf("follower %d: keeps mirrors = %v, want %v", m+1, f.mirrors != nil, want.l1)
		}
	}
}

// TestBatchWideL1NotShared: an L1-I of more ways than a log word can name
// is stepped by every member for itself, equal geometry or not.
func TestBatchWideL1NotShared(t *testing.T) {
	b, err := newBatch(wideL1Designs())
	if err != nil {
		t.Fatal(err)
	}
	lead := b.systems[0]
	for m, sys := range b.systems {
		if sys.replayL1 || sys.mirrors != nil || m > 0 && sys.l1i[0] == lead.l1i[0] {
			t.Errorf("member %d shares a %d-way L1-I", m, sys.cfg.L1I.Assoc)
		}
	}
}

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

// TestRunBatchStreamShortMatchesRun: a bounded Source that runs dry in
// the middle of a lockstep block — every core or a single one, in the
// warmup or the measured window, exact or sampled — fails a batch with
// the very StreamShortError its members' standalone runs report.
func TestRunBatchStreamShortMatchesRun(t *testing.T) {
	source := func(lens ...int) workload.Source {
		recs := make([][]trace.Record, len(lens))
		for i, n := range lens {
			recs[i] = testRecording(t, i, n)
		}
		replay, err := workload.NewReplay(recs)
		if err != nil {
			t.Fatal(err)
		}
		return opaqueSource{replay}
	}
	for _, tc := range []struct {
		name    string
		src     workload.Source
		sampled bool
		warm    int64
		// want is the error: counts are per phase (records into the
		// phase, of the phase's length), except for the one-core case —
		// found by checkConsumed once the other cores finished — whose
		// counts are the core's, over the whole window.
		want StreamShortError
	}{
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
// last mirror way — with both flag bits in every combination.
func TestLeadLogWordRoundTrip(t *testing.T) {
	for _, blk := range []trace.BlockAddr{0, 1, workload.AppBaseBlock, trace.MaxBlockAddr} {
		for _, instrs := range []uint16{1, 2, 0x8000, 0xFFFF} {
			for kind := trace.KindSeq; kind.Valid(); kind++ {
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
