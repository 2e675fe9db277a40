package shift

import (
	"math"
	"reflect"
	"testing"

	"shift/internal/history"
)

// sampledTestPolicy is the policy the benchmarks gate (see
// BenchmarkSampledFigure7): 1 interval in 40 detailed, 500-record
// intervals, 30% detailed warmup.
func sampledTestPolicy() Sampling {
	return Sampling{Period: 40, IntervalRecords: 500, WarmupFraction: 0.3}
}

// sampledAccuracyOptions is the windowing the accuracy contract is
// stated over: quick warmup, a 100k-record measurement window (the
// scale where sampling pays — 20x fewer detailed records).
func sampledAccuracyOptions() Options {
	o := QuickOptions()
	o.Workloads = []string{"Web Search"}
	o.MeasureRecords = 100000
	return o
}

// TestSampledAccuracy is the differential accuracy contract across all
// seven design points: a sampled run's IPC-class headline (Throughput)
// must land within 2% of the exact run over the same window, its MPKI
// within 20% (the effective-miss process of the stream prefetchers is
// bursty at interval granularity — see ARCHITECTURE.md "Sampled
// execution" — which is exactly why sampled results carry error bars),
// and the error-bound fields must be populated. The simulator is a
// pure function of its inputs, so this test is deterministic, not
// statistical.
func TestSampledAccuracy(t *testing.T) {
	o := sampledAccuracyOptions()
	designs := []Design{DesignBaseline, DesignNextLine, DesignPIF2K, DesignPIF32K,
		DesignZeroLatSHIFT, DesignSHIFT, DesignTIFS}
	grid := func(o Options) []Cell {
		var cells []Cell
		for _, d := range designs {
			cells = append(cells, Cell{Label: d.String(), Config: o.config("Web Search", d)})
		}
		return cells
	}
	exact, err := NewEngine(1, nil).RunAll(grid(o))
	if err != nil {
		t.Fatal(err)
	}
	so := o
	so.Sampling = sampledTestPolicy()
	sampled, err := NewEngine(1, nil).RunAll(grid(so))
	if err != nil {
		t.Fatal(err)
	}
	wantIntervals := int32(100000 / (so.Sampling.Period * so.Sampling.IntervalRecords))
	for i, d := range designs {
		e, s := exact[i], sampled[i]
		if e.Sampled || !s.Sampled {
			t.Fatalf("%s: Sampled flags wrong (exact %v, sampled %v)", d, e.Sampled, s.Sampled)
		}
		if s.SampledIntervals != wantIntervals || s.SampleConfidence != 0.95 {
			t.Errorf("%s: intervals %d (want %d), confidence %v",
				d, s.SampledIntervals, wantIntervals, s.SampleConfidence)
		}
		if s.ThroughputStdErr <= 0 || s.ThroughputCI < s.ThroughputStdErr ||
			s.MPKIStdErr <= 0 || s.MPKICI < s.MPKIStdErr {
			t.Errorf("%s: degenerate error bounds %+v", d, s)
		}
		if rel := math.Abs(s.Throughput-e.Throughput) / e.Throughput; rel > 0.02 {
			t.Errorf("%s: Throughput rel err %.2f%% > 2%% (sampled %.4f, exact %.4f)",
				d, rel*100, s.Throughput, e.Throughput)
		}
		if rel := math.Abs(s.MPKI-e.MPKI) / e.MPKI; rel > 0.20 {
			t.Errorf("%s: MPKI rel err %.1f%% > 20%% (sampled %.3f, exact %.3f)",
				d, rel*100, s.MPKI, e.MPKI)
		}
	}
}

// TestSampledBatchMatchesRun mirrors the sim layer's determinism
// contract through the public API: a sampled batch (what the engine
// schedules for a figure grid) is bit-identical to standalone sampled
// runs, error bounds included.
func TestSampledBatchMatchesRun(t *testing.T) {
	o := QuickOptions()
	o.Workloads = []string{"Web Search"}
	o.WarmupRecords = 10000
	o.MeasureRecords = 20000
	o.Sampling = Sampling{Period: 5, IntervalRecords: 500, WarmupFraction: 0.25}
	var cfgs []Config
	for _, d := range []Design{DesignBaseline, DesignPIF2K, DesignSHIFT} {
		cfgs = append(cfgs, o.config("Web Search", d))
	}
	batched, err := RunBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		solo, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batched[i], solo) {
			t.Errorf("%s: sampled batch result differs from standalone Run", cfg.Design)
		}
		if !solo.Sampled || solo.SampledIntervals != 8 {
			t.Errorf("%s: sampled metadata wrong: %+v", cfg.Design, solo)
		}
	}
}

// TestSampledKeysNeverCollide locks the storage contract: a sampled
// cell must never alias its exact twin (or a differently-sampled twin)
// in any ResultStore backend, while exact keys stay byte-stable across
// releases.
func TestSampledKeysNeverCollide(t *testing.T) {
	exact := DefaultRunConfig("Web Search", DesignSHIFT)
	sampled := exact
	sampled.Sampling = sampledTestPolicy()
	other := sampled
	other.Sampling.Period = 10

	keys := map[string]string{
		"exact":    exact.Key(),
		"sampled":  sampled.Key(),
		"period10": other.Key(),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, ok := seen[k]; ok {
			t.Fatalf("configs %s and %s share key %s", prev, name, k)
		}
		seen[k] = name
	}
	// A disabled policy (Period 0 or 1) is exact simulation and must
	// key identically to the plain exact config.
	one := exact
	one.Sampling.Period = 1
	if one.Key() != exact.Key() {
		t.Error("Period=1 config keyed differently from exact")
	}
	// Policies are keyed in normalized form: writing the defaults out
	// and leaving them zero describe the identical simulation and must
	// share a key (and a batch schedule).
	spelled := sampled
	spelled.Sampling.Confidence = 0.95 // the default, written out
	implicit := exact
	implicit.Sampling = Sampling{Period: 40} // interval/warmup/confidence defaulted
	explicit := exact
	explicit.Sampling = Sampling{Period: 40, IntervalRecords: 500,
		WarmupFraction: 0.25, Confidence: 0.95} // the same defaults, written out
	if spelled.Key() != sampled.Key() {
		t.Error("spelled-out default confidence keyed differently")
	}
	if implicit.Key() != explicit.Key() || implicit.StreamKey() != explicit.StreamKey() {
		t.Error("normalization-equivalent policies keyed differently")
	}
	// Sampled and exact cells of one workload must not share a batch
	// schedule either; different schedules must not share one; but a
	// confidence-only difference (reporting, not schedule) must batch.
	if sampled.StreamKey() == exact.StreamKey() {
		t.Error("sampled and exact cells share a StreamKey (batch schedule)")
	}
	if sampled.StreamKey() == other.StreamKey() {
		t.Error("different sampling policies share a StreamKey")
	}
	conf := sampled
	conf.Sampling.Confidence = 0.99
	if conf.StreamKey() != sampled.StreamKey() {
		t.Error("confidence-only difference changed the StreamKey (schedule)")
	}
	if conf.Key() == sampled.Key() {
		t.Error("confidence-only difference did not change the result Key")
	}
}

// TestSampledEngineStoresBothModes runs the same cell exactly and
// sampled through one engine+store and checks both results live side
// by side, with the sampled-cell counter tracking only the latter.
func TestSampledEngineStoresBothModes(t *testing.T) {
	cache := NewResultCache()
	e := NewEngine(1, cache)
	o := QuickOptions()
	o.Workloads = []string{"Web Search"}
	o.WarmupRecords = 5000
	o.MeasureRecords = 10000
	exactCfg := o.config("Web Search", DesignBaseline)
	sampledCfg := exactCfg
	sampledCfg.Sampling = Sampling{Period: 5, IntervalRecords: 500}

	re, err := e.RunOne(exactCfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := e.RunOne(sampledCfg)
	if err != nil {
		t.Fatal(err)
	}
	if re.Sampled || !rs.Sampled {
		t.Fatalf("mode flags wrong: exact %v sampled %v", re.Sampled, rs.Sampled)
	}
	if cache.Len() != 2 {
		t.Fatalf("store holds %d cells, want 2 (exact and sampled must not collide)", cache.Len())
	}
	if st := e.Stats(); st.Simulated != 2 || st.SampledCells != 1 {
		t.Fatalf("engine stats %+v, want 2 simulated / 1 sampled", st)
	}
	// Both must now be served from the store without re-simulation.
	if _, err := e.RunOne(exactCfg); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunOne(sampledCfg); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Simulated != 2 {
		t.Fatalf("store round trip re-simulated: %+v", st)
	}
}

// TestSampledOptionsValidation: experiment drivers reject malformed
// sampling policies up front.
func TestSampledOptionsValidation(t *testing.T) {
	o := QuickOptions()
	o.Sampling = Sampling{Period: 4, WarmupFraction: 2}
	if _, err := RunFigure7(o); err == nil {
		t.Error("bad warmup fraction accepted")
	}
	o.Sampling = Sampling{Period: -2}
	if _, err := RunFigure8(o); err == nil {
		t.Error("negative period accepted")
	}
}

// TestStudiesMatchFigure8 pins the studies that build their own SHIFT
// cells (generator core, SAB sensitivity) to Figure 8: at the default
// generator core and at each SAB field's default value the study runs
// exactly Figure 8's SHIFT cell, so its speedup must equal Figure 8's bit
// for bit — exact and sampled (both sides of the ratio sample, or
// neither). Each study, and Figure 10, runs on an engine of its own,
// which must count every one of its simulations: the baseline and four
// generator choices, the baseline and fourteen sweep points, Figure 10's
// six consolidated runs. Figure 10's six are cells of one mix workload,
// so they run as one batch, and a second run over a store simulates
// none of them.
func TestStudiesMatchFigure8(t *testing.T) {
	def := history.DefaultSABConfig()
	defaults := map[string]int{
		"region span":  def.Span,
		"lookahead":    def.Lookahead,
		"SAB capacity": def.Capacity,
		"streams":      def.Streams,
	}
	for _, sampling := range []Sampling{{}, {Period: 4, IntervalRecords: 200}} {
		o := tinyOptions()
		o.Sampling = sampling
		engines := map[string]*Engine{}
		on := func(what string) Options {
			oe := o
			oe.Engine = NewEngine(1, nil)
			engines[what] = oe.Engine
			return oe
		}
		fig8, err := RunFigure8(o)
		if err != nil {
			t.Fatal(err)
		}
		want := fig8.Speedup[fig8.Workloads[0]][DesignSHIFT.String()]
		gen, err := RunGeneratorStudy(on("generator study"))
		if err != nil {
			t.Fatal(err)
		}
		if p := gen.Points[0]; p.GeneratorCore != 0 || p.Speedup != want {
			t.Errorf("sampling %+v: generator core %d speedup %v, Figure 8 SHIFT %v",
				sampling, p.GeneratorCore, p.Speedup, want)
		}
		sens, err := RunSensitivity(on("sensitivity sweep"))
		if err != nil {
			t.Fatal(err)
		}
		matched := 0
		for _, p := range sens.Points {
			if p.Value != defaults[p.Parameter] {
				continue
			}
			matched++
			if p.Speedup != want {
				t.Errorf("sampling %+v: %s %d speedup %v, Figure 8 SHIFT %v",
					sampling, p.Parameter, p.Value, p.Speedup, want)
			}
		}
		if matched != len(defaults) {
			t.Errorf("sampling %+v: %d sweep points at a default value, want %d", sampling, matched, len(defaults))
		}
		if _, err := RunFigure10(on("Figure 10")); err != nil {
			t.Fatal(err)
		}
		for what, want := range map[string]struct{ cells, batched int64 }{
			"generator study":   {5, 0},
			"sensitivity sweep": {15, 0},
			"Figure 10":         {6, 6},
		} {
			wantSampled := int64(0)
			if sampling.Enabled() {
				wantSampled = want.cells
			}
			if st := engines[what].Stats(); st.Simulated != want.cells || st.SampledCells != wantSampled || st.Batched != want.batched {
				t.Errorf("sampling %+v: %s counted %d cells (%d sampled, %d batched) on its engine, want %d (%d, %d)",
					sampling, what, st.Simulated, st.SampledCells, st.Batched, want.cells, wantSampled, want.batched)
			}
		}

		stored := o
		stored.Engine = NewEngine(1, NewResultCache())
		for run := 1; run <= 2; run++ {
			if _, err := RunFigure10(stored); err != nil {
				t.Fatal(err)
			}
			if st := stored.Engine.Stats(); st.Simulated != 6 {
				t.Errorf("sampling %+v: Figure 10 run %d over a store: %d cells simulated in all, want 6", sampling, run, st.Simulated)
			}
		}
	}
}
