package sim

import (
	"encoding/json"
	"errors"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"shift/internal/core"
	"shift/internal/history"
	"shift/internal/noc"
	"shift/internal/prefetch"
	"shift/internal/trace"
	"shift/internal/workload"
)

// testSampling is a small, fast policy for unit tests.
func testSampling() Sampling {
	return Sampling{Period: 5, IntervalRecords: 1000, WarmupFraction: 0.25}
}

func TestSamplingValidate(t *testing.T) {
	good := []Sampling{
		{},
		{Period: 1},
		testSampling(),
		{Period: 2}, // all defaults
		{Period: 10, IntervalRecords: 100, WarmupFraction: 0.5, Confidence: 0.99},
	}
	for i, p := range good {
		if err := p.validate(); err != nil {
			t.Errorf("good policy %d rejected: %v", i, err)
		}
	}
	bad := []Sampling{
		{Period: -1},
		{Period: 4, IntervalRecords: -5},
		{Period: 4, WarmupFraction: -0.1},
		{Period: 4, WarmupFraction: 1},
		{Period: 4, Confidence: 0.5},
	}
	for i, p := range bad {
		if err := p.validate(); err == nil {
			t.Errorf("bad policy %d accepted", i)
		}
	}
}

func TestSamplingSegments(t *testing.T) {
	p := Sampling{Period: 4, IntervalRecords: 100, WarmupFraction: 0.25}
	segs := p.segments(1000, 850)
	// warmup+first gap fused (1275,F) + [25 D, 100 D-measured] + gap
	// (275,F) + [25 D, 100 D-measured] + 50 F tail.
	var total int64
	intervals := 0
	measuredRounds := int64(0)
	for _, s := range segs {
		total += s.rounds
		if s.measured {
			intervals++
			measuredRounds += s.rounds
			if s.functional {
				t.Fatal("measured functional segment")
			}
		}
	}
	if total != 1850 {
		t.Fatalf("segments cover %d rounds, want 1850", total)
	}
	if intervals != 2 || measuredRounds != 200 {
		t.Fatalf("got %d intervals over %d rounds, want 2 over 200", intervals, measuredRounds)
	}
	if got := p.intervals(850); got != 2 {
		t.Fatalf("Intervals(850) = %d, want 2", got)
	}
	if segs[0].rounds != 1275 || !segs[0].functional || segs[0].llcMask != 0 {
		t.Fatalf("fused warmup segment %+v not full-warm functional", segs[0])
	}

	// A gap longer than the near zone splits into a strided far zone
	// and a full-warm near zone.
	long := Sampling{Period: 40, IntervalRecords: 250, WarmupFraction: 0.3}
	segs = long.segments(25000, 10000)
	if len(segs) < 3 {
		t.Fatalf("unexpected schedule %+v", segs)
	}
	far, near := segs[0], segs[1]
	gap := int64(40*250 - 250 - 75)
	if far.rounds != 25000+gap-llcNearRounds || !far.functional || far.llcMask != llcFarStride-1 {
		t.Fatalf("far zone %+v", far)
	}
	if near.rounds != llcNearRounds || !near.functional || near.llcMask != 0 {
		t.Fatalf("near zone %+v", near)
	}
}

func TestRunSpecRejectsUnsampleableWindow(t *testing.T) {
	spec := testSpec(testConfig())
	spec.MeasureRecords = 3000 // one chunk of the policy below is 5000
	spec.Sampling = testSampling()
	if _, err := Run(spec); err == nil {
		t.Fatal("window smaller than one sampling chunk accepted")
	}
	spec.Sampling.Period = -3
	if _, err := Run(spec); err == nil {
		t.Fatal("negative period accepted")
	}
}

// TestRunSampledReportsErrorBounds checks the shape of a sampled
// result: interval count, confidence metadata, and plausible headline
// metrics close to the exact run's.
func TestRunSampledReportsErrorBounds(t *testing.T) {
	cfg := testConfig()
	cfg.Prefetcher = PrefetcherSpec{Kind: KindHistory, History: smallSHIFT(core.Virtualized)}
	spec := testSpec(cfg)
	spec.Sampling = testSampling()

	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Sampled
	if st == nil {
		t.Fatal("sampled run returned no SampleStats")
	}
	wantIntervals := int(spec.Sampling.intervals(spec.MeasureRecords))
	if st.Intervals != wantIntervals {
		t.Fatalf("got %d intervals, want %d", st.Intervals, wantIntervals)
	}
	if st.Confidence != 0.95 {
		t.Fatalf("confidence %v, want default 0.95", st.Confidence)
	}
	if st.MPKI.StdErr < 0 || st.Throughput.StdErr < 0 {
		t.Fatal("negative standard error")
	}
	if st.MPKI.CIHalfWidth < st.MPKI.StdErr {
		t.Fatal("CI narrower than one standard error")
	}
	// The measured window is Intervals*IntervalRecords rounds.
	wantRecords := int64(wantIntervals) * spec.Sampling.IntervalRecords * int64(cfg.Cores)
	if res.Records != wantRecords {
		t.Fatalf("measured %d records, want %d", res.Records, wantRecords)
	}

	exact, err := Run(testSpec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if exact.Sampled != nil {
		t.Fatal("exact run carries SampleStats")
	}
	// Throughput (cycle-side) estimates are tight even at this tiny
	// 4-core scale; MPKI rides the bursty coverage process, so its
	// bound here is only a sanity check — the statistically meaningful
	// contract is that the run's own confidence interval covers the
	// deviation (see TestSampledAccuracy at the package root for the
	// full-scale accuracy gates).
	if relErr := math.Abs(res.Throughput-exact.Throughput) / exact.Throughput; relErr > 0.03 {
		t.Fatalf("sampled Throughput %.3f vs exact %.3f: rel err %.1f%% (sanity bound 3%%)",
			res.Throughput, exact.Throughput, relErr*100)
	}
	if relErr := math.Abs(res.MPKI-exact.MPKI) / exact.MPKI; relErr > 0.35 {
		t.Fatalf("sampled MPKI %.3f vs exact %.3f: rel err %.1f%% (sanity bound 35%%)",
			res.MPKI, exact.MPKI, relErr*100)
	}
}

// TestRunSampledDeterministic locks the reproducibility contract:
// identical spec, identical Result, bit for bit.
func TestRunSampledDeterministic(t *testing.T) {
	cfg := testConfig()
	cfg.Prefetcher = designSpecs()[dPIF2K]
	spec := testSpec(cfg)
	spec.Sampling = testSampling()
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical sampled runs differ")
	}
}

// warmSystems builds two identical systems over the same workload
// stream and steps one through the detailed path and the other through
// the functional path for the same rounds.
func warmSystems(t *testing.T, cfg Config, rounds int64) (detailed, functional *System) {
	t.Helper()
	step := func(functional bool) *System {
		b := enterAll(t, []RunSpec{{Config: cfg, Workload: testWorkload(), MeasureRecords: rounds}})
		lockstep(t, b, cutBlocks([]segment{{rounds: rounds, functional: functional}}, 0), nil)
		return b.systems[0]
	}
	return step(false), step(true)
}

// TestFunctionalWarmStateMatchesDetailed is the warmed-structure
// differential: for every design point, stepping a system N records
// through the functional path must leave the slow-warming structures —
// per-core L1-I content and recency (canonical fingerprint), branch
// predictor state, and (where the history is a pure
// function of the record stream) the prefetcher history — bit-identical
// to stepping the detailed path over the same records. TIFS's history
// follows the effective miss stream, which prefetching itself perturbs,
// so its history row runs in prediction mode where the two coincide
// (the access-vs-miss-stream fragility of the paper's Section 2.2).
func TestFunctionalWarmStateMatchesDetailed(t *testing.T) {
	// live is everything a history lets a reader see: the write pointer
	// and the records still valid behind it, at most its capacity.
	// Storage past the write pointer is whatever a recycled buffer's last
	// owner left there.
	live := func(sh *core.SharedHistory) (uint64, []history.Region) {
		end := sh.History().WritePos()
		n := min(end, uint64(sh.Config().HistEntries))
		recs, _ := sh.History().ReadSeq(nil, end-n, int(n))
		return end, recs
	}
	for _, spec := range smallDesignSpecs() {
		name, mode := testName(spec), ModePrefetch
		if spec.History.RecordMisses {
			name, mode = name+"-prediction", ModePrediction
		}
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Prefetcher, cfg.Mode = spec, mode
			det, fun := warmSystems(t, cfg, 20000)
			for i := 0; i < cfg.Cores; i++ {
				if det.l1i[i].Fingerprint() != fun.l1i[i].Fingerprint() {
					t.Errorf("core %d: L1-I content diverged", i)
				}
				if !reflect.DeepEqual(det.bp[i], fun.bp[i]) {
					t.Errorf("core %d: branch predictor state diverged", i)
				}
			}
			// Core 1's history: its own, or the one it shares.
			if len(det.shared) > 0 {
				dEnd, dRecs := live(det.shared[det.groupOf[1]])
				fEnd, fRecs := live(fun.shared[fun.groupOf[1]])
				if dEnd != fEnd || !reflect.DeepEqual(dRecs, fRecs) {
					t.Error("history contents diverged between detailed and functional stepping")
				}
			}
		})
	}
}

// consumePathDesigns is a batch in which every way through System.consume
// has a member: behind a PIF lead (which applies the region lists it
// publishes), a Baseline and a NextLine follower (probe lists only),
// virtualized SHIFT (the generator core applies the region lists, the
// other cores walk the probe lists), TIFS (walks the words for the
// misses), PIF (applies the region lists), a PIF that compacts at span 16
// (walks the words: the log compacts at span 8) and an adaptive SHIFT
// whose generator rotates within the schedule: the new
// generator's builder restarts, and it walks the words until the builder
// is back in the log builder's state — which the two reach at the first
// access that closes both their regions, often before the next functional
// stretch (TestRotatedGeneratorWalksWords rotates right before one).
func consumePathDesigns() []RunSpec {
	all := batchDesigns()
	specs := []RunSpec{all[2], all[0], all[5], all[6], all[3], all[1], all[3], all[5]}
	specs[6].Config.Prefetcher.History.SAB.Span = 16
	specs[7].Config.Prefetcher.AdaptiveGenerator = true
	specs[7].Config.Prefetcher.AdaptWindow = 250
	return specs
}

// consumePath names the way core c of sys consumes a functional stretch
// whose log builder starts in state start.
func consumePath(sys *System, c int, start history.Builder) string {
	need, rw := sys.consumeWork(c, start)
	switch {
	case rw != nil:
		return "regions"
	case need == prefetch.WarmRecords:
		return "records"
	case need == prefetch.WarmMisses:
		return "misses"
	}
	return "list"
}

// TestConsumePathsCovered keeps consumePathDesigns honest: each kind of
// work consume can owe a core is owed to some core of some member. It
// walks the sampled schedule and, at every lockstep block boundary —
// where each member's builders stand where they will at its next
// functional stretch, unless a rotation intervenes — names every core's
// path against the log's builders.
func TestConsumePathsCovered(t *testing.T) {
	specs := windowed(consumePathDesigns(), 20000, 30000, testSampling())
	b := enterAll(t, specs)
	if b.log.builders == nil {
		t.Fatal("a sampled batch with compacting followers publishes no region lists")
	}
	seen := map[string]bool{}
	paths := make([]map[string]int, len(specs)) // member -> path -> core-boundaries
	for m := range paths {
		paths[m] = map[string]int{}
	}
	boundaries := 0
	lockstep(t, b, b.blocks, func() {
		boundaries++
		for m, sys := range b.systems {
			for c := range sys.hot {
				path := consumePath(sys, c, b.log.builders[c])
				if m == 0 {
					if path != "regions" {
						t.Fatalf("lead core %d consumes by %q: the PIF lead applies its own region lists", c, path)
					}
					path = "lead-" + path
				}
				seen[path] = true
				paths[m][path]++
			}
		}
	})
	for _, path := range []string{"lead-regions", "list", "regions", "misses", "records"} {
		if !seen[path] {
			t.Errorf("no core of any member consumes by path %q", path)
		}
	}
	cores := len(b.systems[0].hot)
	all := cores * boundaries
	// Every core of the PIF follower applies the lists; of SHIFT's cores the
	// generator does and the other fifteen — three here — walk probe lists.
	if got := paths[4]["regions"]; got != all {
		t.Errorf("the PIF follower's cores apply region lists at %d of %d core-boundaries", got, all)
	}
	if got, want := paths[2], (map[string]int{"regions": boundaries, "list": all - boundaries}); !reflect.DeepEqual(got, want) {
		t.Errorf("SHIFT's cores consume by %v, want %v (the generator applies the lists)", got, want)
	}
	// The span-16 PIF never can.
	if got := paths[6]["records"]; got != all {
		t.Errorf("the span-16 PIF's cores walk the words at %d of %d core-boundaries", got, all)
	}
	// The differentials over this batch see a rotation.
	if b.systems[7].shared[0].Rotations() == 0 {
		t.Error("the adaptive SHIFT's generator never rotated")
	}
}

// TestRotatedGeneratorWalksWords forces SHIFT's generator role to another
// core mid-run, right before a functional stretch, in a batch member and in
// the same design run alone. The new generator's builder restarts, so it
// walks that stretch's words instead of applying the log's region list —
// before the rotation, and once its builder is back in the log builder's
// state, it applies the lists — and the two runs stay bit-identical. Only
// an adaptive generator rotates, so only its lead log keeps the words: the
// member is adaptive, over a window its own monitor never ends.
func TestRotatedGeneratorWalksWords(t *testing.T) {
	all := batchDesigns()
	specs := windowed([]RunSpec{all[0], all[5]}, 20000, 30000, testSampling())
	specs[1].Config.Prefetcher.AdaptiveGenerator = true
	specs[1].Config.Prefetcher.AdaptWindow = 1 << 40
	batched, solo := enterAll(t, specs), enterAll(t, specs[1:])
	if !batched.blocks[1][0].functional {
		t.Fatal("the schedule's second block does not open with a functional piece")
	}
	fol := batched.systems[1]
	for bi, blk := range batched.blocks {
		lockstep(t, batched, [][]piece{blk}, nil)
		lockstep(t, solo, [][]piece{blk}, nil)
		gen := fol.shared[0].Generator()
		if path := consumePath(fol, gen, batched.log.builders[gen]); path != "regions" {
			t.Fatalf("after block %d, generator core %d consumes by %q, want the region lists", bi, gen, path)
		}
		if bi == 0 {
			fol.shared[0].SetGenerator(2)
			solo.systems[0].shared[0].SetGenerator(2)
			if path := consumePath(fol, 2, batched.log.builders[2]); path != "records" {
				t.Fatalf("generator rotated to core 2 consumes block 1 by %q, want the words", path)
			}
		}
	}
	p := specs[1].Sampling
	if got, want := fol.result(p), solo.systems[0].result(p); !reflect.DeepEqual(got, want) {
		t.Error("a batch member whose generator rotated mid-run differs from the same run alone")
	}
}

// TestRunBatchSampledMatchesRun mirrors TestRunBatchMatchesRun for the
// sampled mode: every design simulated in one sampled batched pass must
// be bit-identical to its standalone sampled Run — including the
// per-interval error bounds — whichever way its cores consume the
// functional stretches, with gaps that have a far zone (strided probes)
// and gaps that are all near zone (a probe per miss).
func TestRunBatchSampledMatchesRun(t *testing.T) {
	nearOnly := Sampling{Period: 3, IntervalRecords: 1000}
	if segs := nearOnly.segments(700, 9000); segs[0].llcMask != 0 || segs[0].rounds > llcNearRounds {
		t.Fatalf("a %d-round head is not all near zone", segs[0].rounds)
	}
	for _, tc := range []struct {
		name    string
		specs   []RunSpec
		refused string // the field the batch is refused for, if any
	}{
		{"mixed", windowed(batchDesigns(), 20000, 30000, testSampling()), ""},
		{"unequal-l1", windowed(unequalL1Designs(), 20000, 30000, testSampling()), "L1I"},
		{"consume-paths", windowed(consumePathDesigns(), 20000, 30000, testSampling()), ""},
		{"consume-paths-near-only", windowed(consumePathDesigns(), 700, 9000, nearOnly), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.refused != "" {
				checkBatchRefused(t, tc.specs, tc.refused)
				return
			}
			checkBatchMatchesRun(t, tc.specs)
		})
	}
	// The data-traffic facet: followers that would draw the lead's data
	// traffic draw none and report the lead's totals from the interval
	// marks, while one of another seed and one that eliminates misses
	// draw their own; every member's traffic and hops, the data class's
	// included, are its run's alone.
	t.Run("data-traffic", func(t *testing.T) {
		specs := windowed(batchDesigns()[:7], 20000, 30000, testSampling())
		specs[1].Config.Seed = 42
		specs[2].Config.ElimProb = 0.5
		for m, sys := range enterAll(t, specs).systems[1:] {
			if want := m+1 > 2; sys.replayData != want {
				t.Fatalf("follower %d replays the data traffic: %v, want %v", m+1, sys.replayData, want)
			}
		}
		batched, err := RunBatch(specs)
		if err != nil {
			t.Fatal(err)
		}
		for i, spec := range specs {
			solo, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			intervals := 0
			if solo.Sampled != nil {
				intervals = solo.Sampled.Intervals
			}
			if intervals < 3 || solo.Traffic[noc.DemandData] == 0 {
				t.Fatalf("member %d alone: %d intervals, %d data messages: the test needs several intervals of data traffic",
					i, intervals, solo.Traffic[noc.DemandData])
			}
			if got := batched[i]; got.Traffic != solo.Traffic || got.Hops != solo.Hops {
				t.Errorf("member %d (seed %d, elim %g): traffic %v hops %v batched, %v %v alone",
					i, spec.Config.Seed, spec.Config.ElimProb, got.Traffic, got.Hops, solo.Traffic, solo.Hops)
			}
			if !reflect.DeepEqual(batched[i], solo) {
				t.Errorf("member %d: batched result differs from Run", i)
			}
		}
	})
}

// TestSampledLeadLogShapes covers both shapes of a sampled batch's lead
// log. In a batch of Baseline, NextLine, PIF_2K, PIF_32K, ZeroLat-SHIFT and
// SHIFT no follower walks a functional stretch's records — each replays
// the lead's predictor and L1-I and applies the probe and region lists —
// so the log keeps no functional words; adding TIFS (it records the
// misses) makes it keep them. Either way every member equals its
// standalone Run. A follower with a predictor of its own, which would walk
// them too, is refused. A follower that would walk words the log does not
// keep — a generator rotated by hand, which no non-adaptive design does —
// fails instead of reading past them.
func TestSampledLeadLogShapes(t *testing.T) {
	six := windowed(batchDesigns()[:6], 20000, 30000, testSampling())
	ownBP := append(append([]RunSpec(nil), six...), six[0])
	ownBP[6].Config.BranchPredictorEntries = 4096
	for _, tc := range []struct {
		name      string
		specs     []RunSpec
		stretches bool
	}{
		{"six-designs", six, false},
		{"with-tifs", windowed(batchDesigns()[:7], 20000, 30000, testSampling()), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := enterAll(t, tc.specs)
			if b.log.stretches != tc.stretches {
				t.Fatalf("the log keeps functional words: %v, want %v", b.log.stretches, tc.stretches)
			}
			checkBatchMatchesRun(t, tc.specs)
		})
	}
	t.Run("with-own-predictor", func(t *testing.T) { checkBatchRefused(t, ownBP, "BranchPredictorEntries") })
	t.Run("rotated-by-hand", func(t *testing.T) {
		b := enterAll(t, windowed([]RunSpec{six[0], six[5]}, 20000, 30000, testSampling()))
		if b.log.stretches || !b.blocks[1][0].functional {
			t.Fatal("the batch keeps functional words, or its second block opens in detail: the check proves nothing")
		}
		lockstep(t, b, b.blocks[:1], nil)
		b.systems[1].shared[0].SetGenerator(2)
		if _, err := b.runBlock(0, b.blocks[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := b.runBlock(1, b.blocks[1]); err == nil || !strings.Contains(err.Error(), "does not keep") {
			t.Fatalf("a follower walking words the log does not keep: err %v", err)
		}
	})
}

// TestRunBatchSampledMixedPredictors: a sampled batch, too, refuses a
// member whose predictor differs from the lead's — no follower steps a
// predictor of its own through a functional gap — while each such member
// runs alone.
func TestRunBatchSampledMixedPredictors(t *testing.T) {
	a := testConfig()
	for _, entries := range []int{4096, 0} {
		b := testConfig()
		b.Prefetcher = PrefetcherSpec{Kind: KindHistory, History: smallSHIFT(core.Virtualized)}
		b.BranchPredictorEntries = entries
		specs := []RunSpec{testSpec(a), testSpec(b)}
		for i := range specs {
			specs[i].Sampling = testSampling()
		}
		checkBatchRefused(t, specs, "BranchPredictorEntries")
		if _, err := Run(specs[1]); err != nil {
			t.Errorf("%d predictor entries alone: %v", entries, err)
		}
	}
}

// TestRunBatchRejectsMixedSampling: cells with different sampling
// schedules never share a lockstep schedule, while normalization-
// equivalent (and confidence-only-different) policies batch fine.
func TestRunBatchRejectsMixedSampling(t *testing.T) {
	exact := testSpec(testConfig())
	sampled := exact
	sampled.Sampling = testSampling()
	if _, err := RunBatch([]RunSpec{exact, sampled}); err == nil {
		t.Fatal("mixed exact/sampled batch accepted")
	}
	other := sampled
	other.Sampling.Period = 10
	if _, err := RunBatch([]RunSpec{sampled, other}); err == nil {
		t.Fatal("mixed-period batch accepted")
	}
	// Period 0 and Period 1 both mean "exact": schedules are equal.
	one := exact
	one.Sampling.Period = 1
	if _, err := RunBatch([]RunSpec{exact, one}); err != nil {
		t.Fatalf("disabled-policy spelling rejected: %v", err)
	}
	// Confidence shapes only the reported bounds; each member keeps its
	// own level and stays bit-identical to its standalone run.
	conf := sampled
	conf.Sampling.Confidence = 0.99
	batched, err := RunBatch([]RunSpec{sampled, conf})
	if err != nil {
		t.Fatalf("confidence-only batch rejected: %v", err)
	}
	for i, spec := range []RunSpec{sampled, conf} {
		solo, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batched[i], solo) {
			t.Errorf("member %d: confidence-only batch diverged from Run", i)
		}
	}
	if batched[0].Sampled.Confidence != 0.95 || batched[1].Sampled.Confidence != 0.99 {
		t.Errorf("per-member confidence lost: %v / %v",
			batched[0].Sampled.Confidence, batched[1].Sampled.Confidence)
	}
}

// singleDrySource streams the live workload on every core but one,
// whose stream runs dry after n records without declaring its supply.
type singleDrySource struct {
	w    *workload.Workload
	core int
	n    int64
}

func (s singleDrySource) NewCoreReader(c int) (trace.Reader, error) {
	if c == s.core {
		return &opaqueReader{r: trace.Limit(s.w.NewCoreReader(c), s.n)}, nil
	}
	return s.w.NewCoreReader(c), nil
}

// TestRunMeasuredSingleDryCore: a single core's stream running dry must
// surface as a typed error even while the other cores keep the lockstep
// round loop alive, from a standalone run and a batch alike.
func TestRunMeasuredSingleDryCore(t *testing.T) {
	w, err := workload.Cached(testWorkload())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(testConfig())
	spec.Source = singleDrySource{w: w, core: 2, n: 8000}
	spec.WarmupRecords, spec.MeasureRecords = 5000, 10000
	var solo, batched *StreamShortError
	if _, err := Run(spec); !errors.As(err, &solo) {
		t.Fatalf("single dry core: got %v, want StreamShortError", err)
	}
	if solo.Core != 2 || solo.Have != 8000 {
		t.Fatalf("unexpected error detail: %+v", solo)
	}
	if _, err := RunBatch([]RunSpec{spec, spec}); !errors.As(err, &batched) {
		t.Fatalf("batched single dry core: got %v, want StreamShortError", err)
	}
	if *batched != *solo {
		t.Fatalf("batched %+v, standalone %+v", *batched, *solo)
	}
}

// TestRunSpecRejectsSingleInterval: one measured interval has no
// dispersion to estimate, so the window must fit at least two.
func TestRunSpecRejectsSingleInterval(t *testing.T) {
	spec := testSpec(testConfig())
	spec.Sampling = testSampling() // chunk = 5000 rounds
	spec.MeasureRecords = 5000     // exactly one interval
	if _, err := Run(spec); err == nil {
		t.Fatal("single-interval window accepted")
	}
	spec.MeasureRecords = 10000 // two intervals
	if _, err := Run(spec); err != nil {
		t.Fatalf("two-interval window rejected: %v", err)
	}
}

// TestLLCStateSharedOnlyUntilDetailed settles whether a batch could warm
// one LLC for all its members (ROADMAP item 1, "warm once per batch"):
// among members with equal LLC geometry and no LLC-resident history, the
// banks are bit-identical for as long as every member has only stepped
// functionally — the probes are the log's, the same for all — and differ
// from the first detailed segment on, in every later block: each design's
// prefetch fills insert their own blocks, and its demand misses reach the
// banks in an order its own timing decides. The functional stretch that
// could be shared is the head of the schedule and nothing after it.
func TestLLCStateSharedOnlyUntilDetailed(t *testing.T) {
	all := batchDesigns()
	specs := windowed([]RunSpec{all[0], all[1], all[3]}, 20000, 30000, testSampling())
	b := enterAll(t, specs)
	detailed, block := false, 0
	shared, diverged := 0, 0
	lockstep(t, b, b.blocks, func() {
		for _, p := range b.blocks[block] {
			detailed = detailed || !p.functional
		}
		block++
		lead := b.systems[0]
		for m, sys := range b.systems[1:] {
			differ := 0
			for bank := range sys.llc {
				if sys.llc[bank].Fingerprint() != lead.llc[bank].Fingerprint() {
					differ++
				}
			}
			switch {
			case !detailed && differ != 0:
				t.Errorf("block %d, before any detailed segment: %d LLC banks of %s differ from the lead's",
					block, differ, specs[m+1].Config.Prefetcher.Name())
			case detailed && differ == 0:
				t.Errorf("block %d, after a detailed segment: every LLC bank of %s equals the lead's",
					block, specs[m+1].Config.Prefetcher.Name())
			case detailed:
				diverged++
			default:
				shared++
			}
		}
	})
	if shared == 0 || diverged == 0 {
		t.Fatalf("%d comparisons before the first detailed segment, %d after: the schedule shows only one side", shared, diverged)
	}
}

// sampledResultDigests pins the sampled results themselves: the FNV-1a
// hash of the JSON of each member's Result for batchDesigns over
// 20000 + 30000 records under testSampling, as computed before the
// functional path was split into a producing and a consuming stage, less
// the JSON keys of the counters no product code read (CoreType, L1I,
// BranchStall, four prefetch.Stats fields and MetricEstimate.Mean). The
// Run ≡ RunBatch differentials cannot see a change that moves both sides
// alike — standalone and batched stepping share that path — and the
// command goldens hold no sampled run.
var sampledResultDigests = []uint64{
	0xfa83bdb3f18aa967, // Baseline
	0xb1f5aae3a6ea7588, // NextLine
	0xa618a0caee5aad73, // PIF_2K
	0xa3a20e3362da2c55, // PIF_32K
	0xc68f10dbd0fcdd3a, // ZeroLat-SHIFT
	0x1e080c33cbe1184d, // SHIFT
	0x53969a5cd8ecbf64, // TIFS
	0xbae5577df9d80bbe, // Baseline, seed 42, ElimProb 0.5
	0xaedb1a1cc6e0f6f2, // SHIFT, prediction mode
}

func TestSampledResultsPinned(t *testing.T) {
	specs := windowed(batchDesigns(), 20000, 30000, testSampling())
	rs, err := RunBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf)
		if got := h.Sum64(); got != sampledResultDigests[i] {
			t.Errorf("member %d (%s): sampled result digest %#016x, pinned %#016x", i, specs[i].Config.Prefetcher.Name(), got, sampledResultDigests[i])
		}
	}
}

// TestWarmNeedsDeclared pins what each design's Warmer asks to be shown
// of a functional stretch: designs without history have no Warmer at all,
// PIF compacts every access, TIFS logs the misses, and of SHIFT's cores
// exactly the generator — whichever core holds the role — records.
func TestWarmNeedsDeclared(t *testing.T) {
	needs := func(spec PrefetcherSpec) (*System, []prefetch.WarmNeed) {
		sys := buildSteadySystem(t, spec)
		out := make([]prefetch.WarmNeed, len(sys.hot))
		for c := range out {
			out[c], _ = sys.consumeWork(c, history.Builder{})
		}
		return sys, out
	}
	all := func(n prefetch.WarmNeed) []prefetch.WarmNeed { return []prefetch.WarmNeed{n, n, n, n} }
	generator := []prefetch.WarmNeed{prefetch.WarmRecords, prefetch.WarmNone, prefetch.WarmNone, prefetch.WarmNone}
	want := map[string][]prefetch.WarmNeed{
		"Baseline":      all(prefetch.WarmNone),
		"NextLine":      all(prefetch.WarmNone),
		"PIF_2K":        all(prefetch.WarmRecords),
		"PIF_32K":       all(prefetch.WarmRecords),
		"ZeroLat-SHIFT": generator,
		"SHIFT":         generator,
		"TIFS":          all(prefetch.WarmMisses),
	}
	for _, spec := range smallDesignSpecs() {
		sys, got := needs(spec)
		if !reflect.DeepEqual(got, want[spec.Name()]) {
			t.Errorf("%s: cores need %v, want %v", spec.Name(), got, want[spec.Name()])
		}
		if len(sys.shared) == 1 {
			sys.shared[0].SetGenerator(2)
			for c := range sys.hot {
				want := prefetch.WarmNone
				if c == 2 {
					want = prefetch.WarmRecords
				}
				if need, _ := sys.consumeWork(c, history.Builder{}); need != want {
					t.Errorf("%s, generator moved to core 2: core %d needs %v, want %v", spec.Name(), c, need, want)
				}
			}
		}
	}
}
