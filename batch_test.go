package shift

import (
	"reflect"
	"strings"
	"testing"

	"shift/internal/sim"
)

// TestStreamKey pins the stream partition: designs, seeds, modes, and
// history sizes share a stream; workloads, core counts, window lengths
// and sampling schedules split it. Zero and default window/core values
// must coincide (the key normalizes exactly like Config.spec). Stream,
// the comparable identity, and StreamKey, its hash, partition alike.
func TestStreamKey(t *testing.T) {
	base := DefaultRunConfig("Web Search", DesignSHIFT)
	same := []func(*Config){
		func(c *Config) { c.Design = DesignBaseline },
		func(c *Config) { c.Seed = 99 },
		func(c *Config) { c.CoreType = LeanIO },
		func(c *Config) { c.HistEntries = 2048 },
		func(c *Config) { c.PredictionOnly = true },
		func(c *Config) { c.CommonalityMode = true },
		func(c *Config) { c.ElimProb = 0.5 },
	}
	for i, mut := range same {
		c := base
		mut(&c)
		if c.StreamKey() != base.StreamKey() || c.Stream() != base.Stream() {
			t.Errorf("stream-preserving mutation %d changed the key", i)
		}
	}
	diff := []func(*Config){
		func(c *Config) { c.Workload = "OLTP Oracle" },
		func(c *Config) { c.Cores = 8 },
		func(c *Config) { c.WarmupRecords = 1000 },
		func(c *Config) { c.MeasureRecords = 1000 },
		func(c *Config) { c.Sampling = Sampling{Period: 4} },
	}
	for i, mut := range diff {
		c := base
		mut(&c)
		if c.StreamKey() == base.StreamKey() || c.Stream() == base.Stream() {
			t.Errorf("stream-changing mutation %d kept the key", i)
		}
	}
	// A sampling policy's spelling and its confidence level do not split
	// a stream; its schedule does.
	sampled, spelled, confident, other := base, base, base, base
	sampled.Sampling = Sampling{Period: 4}
	spelled.Sampling = Sampling{Period: 4, IntervalRecords: 500, WarmupFraction: 0.25, Confidence: 0.95}
	confident.Sampling = Sampling{Period: 4, Confidence: 0.99}
	other.Sampling = Sampling{Period: 4, IntervalRecords: 300}
	for i, c := range []Config{spelled, confident} {
		if c.StreamKey() != sampled.StreamKey() || c.Stream() != sampled.Stream() {
			t.Errorf("sampled variant %d split the stream", i)
		}
	}
	if other.StreamKey() == sampled.StreamKey() || other.Stream() == sampled.Stream() {
		t.Error("a different interval length kept the key")
	}
	// Defaults: zero values normalize to the explicit defaults.
	zero := Config{Workload: "Web Search", Design: DesignSHIFT}
	if zero.StreamKey() != base.StreamKey() || zero.Stream() != base.Stream() {
		t.Error("zero-value windows do not normalize to the default stream key")
	}
}

// TestRunBatchMatchesRun is the public one-path differential: for every
// catalog design, over an exact and a sampled window, the four ways in
// can only differ in how many members share the stream — Run(c), the
// batch of one RunBatch([c]), c's slot in the batch of all seven, and
// Engine.RunOne(c) must return bit-identical results.
func TestRunBatchMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sampling Sampling
	}{
		{"exact", Sampling{}},
		{"sampled", Sampling{Period: 4, IntervalRecords: 300}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := engineTestOptions()
			o.Sampling = tc.sampling
			var cfgs []Config
			for d := DesignBaseline; d <= DesignTIFS; d++ {
				cfgs = append(cfgs, o.config("Web Search", d))
			}
			all, err := RunBatch(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			for i, cfg := range cfgs {
				solo, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if solo.Sampled != tc.sampling.Enabled() {
					t.Fatalf("%s: Sampled = %v", cfg.Design, solo.Sampled)
				}
				one, err := RunBatch([]Config{cfg})
				if err != nil {
					t.Fatal(err)
				}
				viaEngine, err := NewEngine(1, nil).RunOne(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for how, got := range map[string]RunResult{
					"RunBatch of one": one[0], "its slot in the batch of all": all[i], "Engine.RunOne": viaEngine,
				} {
					if !reflect.DeepEqual(got, solo) {
						t.Errorf("%s: %s differs from Run", cfg.Design, how)
					}
				}
			}
		})
	}
}

// TestRunBatchRejectsMixedStreams asserts mismatched StreamKeys fail
// with the offending index named.
func TestRunBatchRejectsMixedStreams(t *testing.T) {
	o := engineTestOptions()
	cfgs := []Config{
		o.config("Web Search", DesignBaseline),
		o.config("OLTP Oracle", DesignBaseline),
	}
	if _, err := RunBatch(cfgs); err == nil {
		t.Fatal("mixed-stream batch accepted")
	} else if !strings.Contains(err.Error(), "1") {
		t.Errorf("error does not name the mismatched spec: %v", err)
	}
	bad := []Config{o.config("Web Search", DesignBaseline), o.config("Web Search", Design(99))}
	if _, err := RunBatch(bad); err == nil {
		t.Fatal("unknown design accepted in batch")
	}
}

// TestEngineBatchesStreams checks the engine's batch scheduling and its
// observability: a Figure-7-shaped grid is executed as one batch per
// workload, the counters record it, the output matches the parallel
// engine bit for bit, and cells alone on their streams — batches of one —
// are simulated but not counted as batched.
func TestEngineBatchesStreams(t *testing.T) {
	o := engineTestOptions()
	var cells []Cell
	for _, w := range o.Workloads {
		for _, d := range []Design{DesignBaseline, DesignPIF2K, DesignPIF32K, DesignSHIFT} {
			cells = append(cells, cell(o.config(w, d)))
		}
	}

	batchedEng := NewEngine(1, nil)
	batched, err := batchedEng.RunAll(cells)
	if err != nil {
		t.Fatal(err)
	}
	st := batchedEng.Stats()
	if st.Batched != int64(len(cells)) {
		t.Errorf("Batched = %d, want %d", st.Batched, len(cells))
	}
	wantShared := int64(len(cells) - len(o.Workloads)) // K-1 per workload batch
	if st.StreamsShared != wantShared {
		t.Errorf("StreamsShared = %d, want %d", st.StreamsShared, wantShared)
	}
	if st.Simulated != int64(len(cells)) {
		t.Errorf("Simulated = %d, want %d", st.Simulated, len(cells))
	}

	var alone []Cell
	for _, w := range o.Workloads {
		alone = append(alone, cell(o.config(w, DesignSHIFT)))
	}
	aloneEng := NewEngine(1, nil)
	if _, err := aloneEng.RunAll(alone); err != nil {
		t.Fatal(err)
	}
	if st := aloneEng.Stats(); st.Simulated != int64(len(alone)) || st.Batched != 0 || st.StreamsShared != 0 {
		t.Errorf("one cell per stream: %+v, want %d simulated and none batched", st, len(alone))
	}

	parallelEng := NewEngine(4, nil)
	parallel, err := parallelEng.RunAll(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batched, parallel) {
		t.Error("parallel batched output differs from serial batched")
	}
}

// TestEngineBatchErrorDeterminism places failing cells inside and
// across would-be batches and checks the lowest-index-cell error
// contract holds regardless of parallelism or batching.
func TestEngineBatchErrorDeterminism(t *testing.T) {
	o := engineTestOptions()
	badA := o.config("Web Search", Design(99)) // fails spec conversion
	badB := o.config("Web Search", Design(98))
	grids := map[string][]Cell{
		"within batch": {
			cell(o.config("Web Search", DesignBaseline)),
			cell(badA),
			cell(badB),
			cell(o.config("Web Search", DesignNextLine)),
		},
		// The lowest-index failing cell (index 1) lives in the SECOND
		// batch (stream "OLTP Oracle" first appears at cell 1), while
		// the first batch fails later at cell 2 — the error selection
		// must not depend on batch scheduling or parallelism.
		"across batches": {
			cell(o.config("Web Search", DesignBaseline)),
			cell(o.config("OLTP Oracle", Design(97))),
			cell(badB),
			cell(o.config("OLTP Oracle", DesignBaseline)),
		},
	}
	for name, cells := range grids {
		var errs []string
		for _, par := range []int{1, 4} {
			e := NewEngine(par, nil)
			_, err := e.RunAll(cells)
			if err == nil {
				t.Fatalf("%s parallelism %d: bad design accepted", name, par)
			}
			errs = append(errs, err.Error())
		}
		if errs[0] != errs[1] {
			t.Errorf("%s: error differs by parallelism:\nserial:   %s\nparallel: %s", name, errs[0], errs[1])
		}
		want := "Design(99)"
		if name == "across batches" {
			want = "Design(97)"
		}
		if !strings.Contains(errs[0], want) {
			t.Errorf("%s: error does not reference the lowest failing cell (%s): %s", name, want, errs[0])
		}
	}
}

// TestBatchesAreOneSystem guards sim.RunBatch's one-system rule from the
// engine's side: every Config the engine can receive — each design and
// core type, exact and sampled, under each per-cell option, over a catalog
// workload and a mix spec — becomes a sim.Config equal to
// sim.DefaultConfig() outside the fields a batch may vary and the core
// count, which the stream fixes. Configs of one Stream therefore always
// form a batch sim.RunBatch takes. A batch whose second member runs
// another branch predictor is refused, and the error names the field.
func TestBatchesAreOneSystem(t *testing.T) {
	mixID, err := LoadSpec([]byte(`{"name": "one-system-mix", "mix": [
		{"name": "oltp", "cores": 2, "workload": {"base": "OLTP DB2"}},
		{"name": "search", "cores": 2, "workload": {"base": "Web Search", "scale": 0.5}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	def := sim.DefaultConfig()
	options := map[string]func(*Config){
		"prediction-only": func(c *Config) { c.PredictionOnly = true },
		"commonality":     func(c *Config) { c.CommonalityMode = true },
		"elim":            func(c *Config) { c.ElimProb = 0.5 },
		"hist-4096":       func(c *Config) { c.HistEntries = 4096 },
	}
	checked := 0
	for _, wl := range []string{"Web Search", mixID} {
		for d := range designs {
			for _, ct := range AllCoreTypes() {
				for _, p := range []Sampling{{}, {Period: 4}} {
					for name, opt := range options {
						cfg := DefaultRunConfig(wl, Design(d))
						cfg.CoreType, cfg.Cores, cfg.Sampling = ct, 4, p
						opt(&cfg)
						rs, err := cfg.spec()
						if err != nil {
							t.Fatalf("%s %v %v %+v %s: %v", wl, Design(d), ct, p, name, err)
						}
						sc := rs.Config
						sc.CoreType, sc.Mode, sc.ElimProb, sc.Seed, sc.Prefetcher, sc.Cores = def.CoreType, def.Mode, def.ElimProb, def.Seed, def.Prefetcher, def.Cores
						if !reflect.DeepEqual(sc, def) {
							t.Errorf("%s %v %v %+v %s: system %+v, want the default %+v", wl, Design(d), ct, p, name, sc, def)
						}
						checked++
					}
				}
			}
		}
	}
	if want := 2 * len(designs) * len(AllCoreTypes()) * 2 * len(options); checked != want {
		t.Fatalf("checked %d configs, want %d", checked, want)
	}

	lead, err := DefaultRunConfig("Web Search", DesignSHIFT).spec()
	if err != nil {
		t.Fatal(err)
	}
	other := lead
	other.Config.BranchPredictorEntries = 4096
	if _, err := sim.RunBatch([]sim.RunSpec{lead, other}); err == nil || !strings.Contains(err.Error(), "BranchPredictorEntries") {
		t.Errorf("a batch of two predictors: error %v, want one naming BranchPredictorEntries", err)
	}
}
