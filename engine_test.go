package shift

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shift/internal/sim"
	"shift/internal/trace"
)

// engineTestOptions is a reduced Figure 7 scale: small enough for unit
// tests, large enough that every cell does real simulation work.
func engineTestOptions() Options {
	o := QuickOptions()
	o.Workloads = []string{"OLTP Oracle", "Web Search"}
	o.Cores = 4
	o.WarmupRecords = 6000
	o.MeasureRecords = 6000
	return o
}

// TestFigure7SerialParallelIdentical is the engine's key correctness
// property: running Figure 7's grid serially and with an 8-worker pool
// under the same seed must produce identical results structs — results
// are merged by cell, never by completion order.
func TestFigure7SerialParallelIdentical(t *testing.T) {
	serial := engineTestOptions()
	serial.Engine = NewEngine(1, nil)
	parallel := engineTestOptions()
	parallel.Engine = NewEngine(8, nil)

	fs, err := RunFigure7(serial)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := RunFigure7(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fs, fp) {
		t.Errorf("parallel Figure 7 differs from serial:\nserial:   %+v\nparallel: %+v", fs, fp)
	}
}

// TestEngineRunAllOrdersAndDedupes checks that RunAll returns results
// in cell order and simulates duplicate configurations only once.
func TestEngineRunAllOrdersAndDedupes(t *testing.T) {
	o := engineTestOptions()
	cfgA := o.config("Web Search", DesignBaseline)
	cfgB := o.config("Web Search", DesignNextLine)
	cache := NewResultCache()
	e := NewEngine(4, cache)
	res, err := e.RunAll([]Cell{cell(cfgA), cell(cfgB), cell(cfgA)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	if !reflect.DeepEqual(res[0], res[2]) {
		t.Error("duplicate cells returned different results")
	}
	if res[0].Design != DesignBaseline.String() || res[1].Design != DesignNextLine.String() {
		t.Errorf("results out of cell order: %s, %s", res[0].Design, res[1].Design)
	}
	if cache.Len() != 2 {
		t.Errorf("cache holds %d cells, want 2 (duplicate simulated once)", cache.Len())
	}
}

// TestEngineCacheSkipsRecomputation checks the memoization path: with a
// shared cache, re-running the same grid performs no new simulations
// and returns identical results.
func TestEngineCacheSkipsRecomputation(t *testing.T) {
	o := engineTestOptions()
	o.Workloads = []string{"Web Search"}
	cache := NewResultCache()
	o.Engine = NewEngine(0, cache)
	first, err := RunFigure9(o)
	if err != nil {
		t.Fatal(err)
	}
	entries := cache.Len()
	if entries == 0 {
		t.Fatal("cache is empty after a cached run")
	}
	second, err := RunFigure9(o)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != entries {
		t.Errorf("second run grew the cache: %d -> %d", entries, cache.Len())
	}
	hits, _ := cache.Stats()
	if hits == 0 {
		t.Error("second run recorded no cache hits")
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached rerun differs from the original")
	}
	// The cache also serves other experiments sharing cells: Figure 7
	// reuses Figure 9's baseline.
	if _, err := RunFigure7(o); err != nil {
		t.Fatal(err)
	}
	if h, _ := cache.Stats(); h <= hits {
		t.Error("Figure 7 did not reuse the shared baseline cell")
	}
}

// TestConfigKey pins down content addressing: identical configs share a
// key, any field change produces a new one.
func TestConfigKey(t *testing.T) {
	base := DefaultRunConfig("Web Search", DesignSHIFT)
	if base.Key() != DefaultRunConfig("Web Search", DesignSHIFT).Key() {
		t.Error("identical configs got different keys")
	}
	seen := map[string]string{base.Key(): "base"}
	mutations := map[string]Config{}
	for name, mut := range map[string]func(*Config){
		"workload":    func(c *Config) { c.Workload = "OLTP Oracle" },
		"design":      func(c *Config) { c.Design = DesignPIF32K },
		"core type":   func(c *Config) { c.CoreType = LeanIO },
		"cores":       func(c *Config) { c.Cores = 8 },
		"hist":        func(c *Config) { c.HistEntries = 2048 },
		"prediction":  func(c *Config) { c.PredictionOnly = true },
		"commonality": func(c *Config) { c.CommonalityMode = true },
		"elim":        func(c *Config) { c.ElimProb = 0.5 },
		"warmup":      func(c *Config) { c.WarmupRecords = 1000 },
		"measure":     func(c *Config) { c.MeasureRecords = 1000 },
		"seed":        func(c *Config) { c.Seed = 2 },
	} {
		c := base
		mut(&c)
		mutations[name] = c
	}
	for name, c := range mutations {
		k := c.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// TestEngineErrorDeterminism checks that a failing cell surfaces the
// same error regardless of parallelism, annotated with its cell label.
func TestEngineErrorDeterminism(t *testing.T) {
	o := engineTestOptions()
	bad := o.config("No Such Workload", DesignSHIFT)
	cells := []Cell{
		cell(o.config("Web Search", DesignBaseline)),
		cell(bad),
		cell(o.config("Web Search", DesignNextLine)),
	}
	serialErr := func() error {
		_, err := NewEngine(1, nil).RunAll(cells)
		return err
	}()
	parallelErr := func() error {
		_, err := NewEngine(8, nil).RunAll(cells)
		return err
	}()
	if serialErr == nil || parallelErr == nil {
		t.Fatal("bad workload accepted")
	}
	if serialErr.Error() != parallelErr.Error() {
		t.Errorf("error differs by parallelism:\nserial:   %v\nparallel: %v", serialErr, parallelErr)
	}
}

// TestFigure7ParallelSpeedup measures the acceptance property on
// multi-core hosts: the Figure 7 sweep on a 4-wide engine must beat the
// serial sweep by >= 2x wall-clock while producing identical output.
// The engine schedules whole stream-sharing batches (one per workload)
// on the pool, so the grid spans four workloads to expose four units
// of parallel work. The simulator is CPU-bound, so the property is
// only observable with enough hardware parallelism; single- and
// dual-core hosts skip.
func TestFigure7ParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement is not short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for a 2x wall-clock bound, have %d", runtime.NumCPU())
	}
	serial := engineTestOptions()
	serial.Workloads = []string{"OLTP Oracle", "Web Search", "DSS Qry 2", "Media Streaming"}
	serial.Engine = NewEngine(1, nil)
	parallel := serial
	parallel.Engine = NewEngine(4, nil)

	t0 := time.Now()
	fs, err := RunFigure7(serial)
	if err != nil {
		t.Fatal(err)
	}
	serialDur := time.Since(t0)
	t0 = time.Now()
	fp, err := RunFigure7(parallel)
	if err != nil {
		t.Fatal(err)
	}
	parallelDur := time.Since(t0)

	if !reflect.DeepEqual(fs, fp) {
		t.Error("parallel output differs from serial")
	}
	speedup := float64(serialDur) / float64(parallelDur)
	t.Logf("serial %v, parallel(4) %v, speedup %.2fx", serialDur, parallelDur, speedup)
	if speedup < 2.0 {
		t.Errorf("parallel speedup %.2fx < 2x (serial %v, parallel %v)", speedup, serialDur, parallelDur)
	}
}

// TestRunKeyedPerCellOutcomes: RunKeyed is RunAll with every cell's own
// outcome. A grid of one workload's six designs — the shape of a job's
// batch — with one design repeated, one member whose configuration is
// invalid and one whose simulation panics costs exactly those two cells:
// every other cell returns Run's result, the duplicate its twin's, and the
// store is consulted once per distinct cell.
func TestRunKeyedPerCellOutcomes(t *testing.T) {
	o := engineTestOptions()
	var cfgs []Config
	for _, d := range g12Designs {
		cfgs = append(cfgs, o.config("Web Search", d))
	}
	cfgs = append(cfgs, cfgs[2], o.config("Web Search", Design(99)))
	const panics, duplicate, invalid = 4, 6, 7
	cache := NewResultCache()
	e := NewEngine(1, cache)
	e.runBatch = func(batch []Config) ([]RunResult, error) {
		for _, cfg := range batch {
			if cfg.Design == cfgs[panics].Design {
				panic("member panic")
			}
		}
		return RunBatch(batch)
	}
	ks := make([]KeyedConfig, len(cfgs))
	for i, cfg := range cfgs {
		ks[i] = KeyConfig(cfg)
	}
	rs, errs := e.RunKeyed(ks)
	if len(rs) != len(cfgs) || len(errs) != len(cfgs) {
		t.Fatalf("%d results, %d errors for %d cells", len(rs), len(errs), len(cfgs))
	}
	for i, cfg := range cfgs {
		switch i {
		case panics:
			var pe *PanicError
			if !errors.As(errs[i], &pe) {
				t.Errorf("cell %d: error %v, want *PanicError", i, errs[i])
			}
		case invalid:
			if errs[i] == nil || !strings.Contains(errs[i].Error(), "cell "+cell(cfg).Label+":") {
				t.Errorf("cell %d: error %v, want the invalid design's, labelled", i, errs[i])
			}
		default:
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if errs[i] != nil || !reflect.DeepEqual(rs[i], want) {
				t.Errorf("cell %d (%s): error %v or a result other than Run's beside the failing members", i, cfg.Design, errs[i])
			}
		}
	}
	if !reflect.DeepEqual(rs[duplicate], rs[2]) {
		t.Error("the duplicate cell's result differs from its twin's")
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != int64(len(cfgs)-1) {
		t.Errorf("store lookups: %d hits, %d misses; want 0 and one per distinct cell (%d)", hits, misses, len(cfgs)-1)
	}

	// Everything that succeeded is stored: the same grid again simulates
	// only the panicking cell. The invalid one is refused before it is
	// simulated, on either pass.
	before := e.Stats().Simulated
	if _, errs := e.RunKeyed(ks); errs[panics] == nil || errs[invalid] == nil {
		t.Error("the failing cells succeeded on the second pass")
	}
	if hits, _ := cache.Stats(); hits != int64(len(cfgs)-3) {
		t.Errorf("second pass: %d store hits, want %d", hits, len(cfgs)-3)
	}
	if got := e.Stats().Simulated - before; got != 1 {
		t.Errorf("second pass simulated %d cells, want the panicking one", got)
	}
}

// TestRefusedCellKeepsItsBatch: a cell the simulator refuses is refused
// before it joins a batch, so the valid cells on its stream still share
// one: Baseline and SHIFT on Web Search beside a SHIFT cell whose
// elim_prob is out of range run as one batch of two, and only the bad
// cell fails, with the simulator's field error. When the refusal came
// from inside the batch, every member was re-run alone (3 simulated, 0
// batched, 0 streams shared).
func TestRefusedCellKeepsItsBatch(t *testing.T) {
	o := engineTestOptions()
	bad := o.config("Web Search", DesignSHIFT)
	bad.ElimProb = 2
	cfgs := []Config{o.config("Web Search", DesignBaseline), o.config("Web Search", DesignSHIFT), bad}
	ks := make([]KeyedConfig, len(cfgs))
	for i, cfg := range cfgs {
		ks[i] = KeyConfig(cfg)
	}
	e := NewEngine(1, nil)
	_, errs := e.RunKeyed(ks)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("the valid cells failed: %v, %v", errs[0], errs[1])
	}
	var fe *FieldError
	if !errors.As(errs[2], &fe) || fe.Field != "elim_prob" {
		t.Errorf("the refused cell's error is %v, want the elim_prob FieldError", errs[2])
	}
	if st := e.Stats(); st.Simulated != 2 || st.Batched != 2 || st.StreamsShared != 1 {
		t.Errorf("%d simulated, %d batched, %d streams shared; want 2, 2 and 1", st.Simulated, st.Batched, st.StreamsShared)
	}
}

// gatedSource is a record source whose first reader calls gate and then
// fails: a spec cell that reaches the simulator and stops there.
type gatedSource struct{ gate func() }

func (s gatedSource) NewCoreReader(int) (trace.Reader, error) {
	s.gate()
	return nil, errors.New("gated source: no records")
}

// TestEngineBoundsEverySimulation: two concurrent RunAll callers over six
// streams and a concurrent runSpecs caller share one 2-slot engine; at no
// instant do more than two simulations run, whichever entry started them,
// and every one of them counts.
func TestEngineBoundsEverySimulation(t *testing.T) {
	o := engineTestOptions()
	e := NewEngine(2, nil)
	var cur, peak atomic.Int64
	gate := func() {
		n := cur.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
	}
	e.runBatch = func(cfgs []Config) ([]RunResult, error) {
		gate()
		return make([]RunResult, len(cfgs)), nil
	}
	rs, err := o.config("Web Search", DesignSHIFT).spec()
	if err != nil {
		t.Fatal(err)
	}
	rs.Source = gatedSource{gate}

	var wg sync.WaitGroup
	for _, d := range []Design{DesignBaseline, DesignNextLine} {
		var cells []Cell
		for _, w := range Workloads()[:6] {
			cells = append(cells, cell(o.config(w, d)))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.RunAll(cells); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.runSpecs([]sim.RunSpec{rs, rs, rs, rs}); err == nil {
			t.Error("specs over a failing source succeeded")
		}
	}()
	wg.Wait()
	if p := peak.Load(); p != 2 {
		t.Errorf("peak concurrent simulations %d, want the bound, 2", p)
	}
	if got := e.Stats().Simulated; got != 16 {
		t.Errorf("Stats().Simulated = %d, want 12 cells and 4 specs", got)
	}
}

// TestInflightCountsSpecCells: a spec cell counts toward Inflight — what
// /v1/readyz reads saturation from — for as long as it holds its slot,
// although it has no key in the in-flight table.
func TestInflightCountsSpecCells(t *testing.T) {
	e := NewEngine(1, nil)
	rs, err := engineTestOptions().config("Web Search", DesignSHIFT).spec()
	if err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	rs.Source = gatedSource{func() {
		close(started)
		<-release
	}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.runSpecs([]sim.RunSpec{rs})
	}()
	<-started
	if st := e.Stats(); st.Inflight < 1 {
		t.Errorf("Stats().Inflight = %d while a spec cell runs, want at least 1", st.Inflight)
	}
	close(release)
	<-done
	if st := e.Stats(); st.Inflight != 0 || st.Simulated != 1 {
		t.Errorf("after the spec: Stats() = %+v, want 0 in flight, 1 simulated", st)
	}
}

// TestRunSpecsContainsPanics: a spec whose record source panics fails
// with a PanicError ahead of a later failing spec, the panic is counted,
// and the engine's one slot is free for the next cell.
func TestRunSpecsContainsPanics(t *testing.T) {
	o := engineTestOptions()
	e := NewEngine(1, nil)
	panics, err := o.config("Web Search", DesignBaseline).spec()
	if err != nil {
		t.Fatal(err)
	}
	fails := panics
	panics.Source = gatedSource{func() { panic("source panic") }}
	fails.Source = gatedSource{func() {}}
	_, err = e.runSpecs([]sim.RunSpec{panics, fails})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "source panic" {
		t.Fatalf("error %v, want the first spec's *PanicError", err)
	}
	if st := e.Stats(); st.Panicked != 1 || st.Simulated != 2 {
		t.Errorf("Stats() = %+v, want 1 panicked of 2 simulated", st)
	}
	if _, err := e.RunOne(o.config("Web Search", DesignBaseline)); err != nil {
		t.Fatalf("the engine stopped serving after a spec panicked: %v", err)
	}
}
