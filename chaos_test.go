package shift

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"shift/internal/retry"
	"shift/internal/store"
)

// This file is the chaos suite: every test drives the stack through the
// seedable fault-injection blob store (internal/store.Fault) or through
// real on-disk corruption, and proves the resilience contract — grids
// complete, output stays byte-identical to fault-free runs, corruption
// is quarantined once and self-heals, and failures surface only in
// counters and typed errors, never as experiment errors.

// chaosCells is a small two-workload, three-design grid: big enough to
// exercise batching, dedup, and the store on every path.
func chaosCells(o Options) []Cell {
	var cells []Cell
	for _, w := range o.Workloads {
		for _, d := range []Design{DesignBaseline, DesignNextLine, DesignSHIFT} {
			cells = append(cells, cell(o.config(w, d)))
		}
	}
	return cells
}

// chaosPlan is a hostile but survivable fault schedule: roughly a third
// of reads error, a fifth of writes fail (some with ENOSPC), and reads
// that do succeed are frequently corrupted or torn.
func chaosPlan(seed int64) store.FaultPlan {
	return store.FaultPlan{
		Seed:         seed,
		GetErrorRate: 0.20,
		PutErrorRate: 0.15,
		ENOSPCRate:   0.05,
		CorruptRate:  0.15,
		TornRate:     0.10,
	}
}

// TestChaosGridCompletesUnderStoreFaults is the keystone: a grid run
// against a heavily fault-injected store must complete without error
// and produce results byte-identical to a fault-free run — store
// failures cost recomputation, never correctness.
func TestChaosGridCompletesUnderStoreFaults(t *testing.T) {
	o := engineTestOptions()
	cells := chaosCells(o)

	clean := NewEngine(4, NewResultCache())
	want, err := clean.RunAll(cells)
	if err != nil {
		t.Fatal(err)
	}

	fault := store.NewFault(store.NewMem(), chaosPlan(42))
	ds := newBlobStore(fault, false)
	chaotic := NewEngine(4, ds)
	for round := 1; round <= 3; round++ {
		got, err := chaotic.RunAll(cells)
		if err != nil {
			t.Fatalf("round %d: grid failed under store faults: %v", round, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: results under faults differ from fault-free run", round)
		}
	}
	if fault.Injected() == 0 {
		t.Fatal("no faults injected — the chaos schedule proved nothing")
	}
	if ds.Health().Errors == 0 {
		t.Error("injected IO failures never surfaced in Health().Errors")
	}
}

// TestChaosFigureOutputByteIdentical proves the user-visible contract:
// a figure rendered through a fault-injected store is byte-identical to
// the fault-free rendering whenever the grid completes.
func TestChaosFigureOutputByteIdentical(t *testing.T) {
	o := engineTestOptions()

	clean := o
	clean.Engine = NewEngine(4, NewResultCache())
	want, err := RunExperiment("7", clean)
	if err != nil {
		t.Fatal(err)
	}

	fault := store.NewFault(store.NewMem(), chaosPlan(7))
	faulty := o
	faulty.Engine = NewEngine(4, newBlobStore(fault, false))
	got, err := RunExperiment("7", faulty)
	if err != nil {
		t.Fatalf("figure failed under store faults: %v", err)
	}
	if got != want {
		t.Error("figure output under store faults is not byte-identical to the fault-free run")
	}
	if fault.Injected() == 0 {
		t.Fatal("no faults injected — the chaos schedule proved nothing")
	}
}

// TestChaosDiskCorruptionQuarantineAndSelfHeal flips real bytes in a
// real blob on disk: the next Lookup detects it, quarantines the file
// for inspection, and the next Store heals the key.
func TestChaosDiskCorruptionQuarantineAndSelfHeal(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engineTestOptions().config("Web Search", DesignBaseline)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := cfg.Key()
	ds.Store(key, r)

	p := filepath.Join(dir, key[:2], key+".json")
	blob, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/3] ^= 0xff
	if err := os.WriteFile(p, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := ds.Lookup(key); ok {
		t.Fatal("corrupt blob served as a hit")
	}
	if got := ds.Health().Quarantined; got != 1 {
		t.Fatalf("Health().Quarantined = %d, want 1", got)
	}
	if ds.Health().Errors == 0 {
		t.Error("corruption never surfaced in Health().Errors")
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", key+".json")); err != nil {
		t.Errorf("quarantined bytes not preserved: %v", err)
	}
	if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("corrupt blob still in the main tree: %v", err)
	}

	// Self-heal: an engine over the damaged store pays one recomputation
	// for the lost cell, never a wrong number, and its Store recreates
	// the key, which reads back exactly.
	e := NewEngine(1, ds)
	if got, err := e.RunOne(cfg); err != nil || !reflect.DeepEqual(got, r) {
		t.Fatalf("recomputed cell = (%+v, %v), want the original result", got, err)
	}
	if sim := e.Stats().Simulated; sim != 1 {
		t.Errorf("engine over the damaged store simulated %d cells, want 1", sim)
	}
	got, ok := ds.Lookup(key)
	if !ok || !reflect.DeepEqual(got, r) {
		t.Fatalf("self-healed lookup = (%+v, %t), want original result", got, ok)
	}

	// A fresh handle on the same directory sees the preserved quarantine
	// and serves the healed key without simulating.
	ds2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := ds2.Health().Quarantined; got != 1 {
		t.Errorf("reopened Health().Quarantined = %d, want 1", got)
	}
	if got := ds2.Len(); got != 1 {
		t.Errorf("reopened Len() = %d, want 1 (quarantine excluded)", got)
	}
	e2 := NewEngine(1, ds2)
	if _, err := e2.RunOne(cfg); err != nil {
		t.Fatal(err)
	}
	if sim := e2.Stats().Simulated; sim != 0 {
		t.Errorf("engine over the healed store simulated %d cells, want 0", sim)
	}
}

// TestChaosLegacyBlobReadCompat writes a raw pre-integrity blob (no CRC
// footer) straight onto disk: it must be served unverified, and the
// next Store upgrades it to a checksummed blob in place.
func TestChaosLegacyBlobReadCompat(t *testing.T) {
	dir := t.TempDir()
	cfg := engineTestOptions().config("OLTP Oracle", DesignSHIFT)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := cfg.Key()
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, key[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, key[:2], key+".json")
	if err := os.WriteFile(p, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	ds, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := ds.Lookup(key)
	if !ok || !reflect.DeepEqual(got, r) {
		t.Fatalf("legacy blob lookup = (%+v, %t), want served unverified", got, ok)
	}
	if ds.Health().Errors != 0 {
		t.Errorf("legacy blob counted as an error: Health().Errors = %d", ds.Health().Errors)
	}

	ds.Store(key, r)
	upgraded, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(upgraded, []byte("#crc32c:")) {
		t.Error("rewrite did not upgrade the legacy blob to a checksummed one")
	}
	if _, ok := ds.Lookup(key); !ok {
		t.Error("upgraded blob no longer readable")
	}
}

// TestChaosLenReturnsLastKnownCount is the Len satellite: a transient
// walk failure must return the last known count — never a misleading
// zero — and land in Health().Errors.
func TestChaosLenReturnsLastKnownCount(t *testing.T) {
	fault := store.NewFault(store.NewMem(), store.FaultPlan{})
	ds := newBlobStore(fault, false)
	for i, key := range []string{"cell-a", "cell-b", "cell-c"} {
		ds.Store(key, RunResult{MPKI: float64(i)})
	}
	if got := ds.Len(); got != 3 {
		t.Fatalf("Len() = %d, want 3", got)
	}

	// Three scripted failures exhaust the retry layer's attempts, so the
	// walk error reaches the BlobStore.
	fault.FailNextLens(3)
	errsBefore := ds.Health().Errors
	if got := ds.Len(); got != 3 {
		t.Fatalf("Len() under walk failure = %d, want last known 3", got)
	}
	if ds.Health().Errors != errsBefore+1 {
		t.Errorf("walk failure not counted: Health().Errors = %d, want %d", ds.Health().Errors, errsBefore+1)
	}

	// Recovery resumes live counts.
	ds.Store("cell-d", RunResult{MPKI: 4})
	if got := ds.Len(); got != 4 {
		t.Errorf("Len() after recovery = %d, want 4", got)
	}
}

// TestTieredStoreServesFromMemoryUnderDiskFailure: with the blob tier
// of a tiered BlobStore hard-failing, hot cells keep serving
// from memory, new results keep landing, and the counters prove the
// fallback happened.
func TestTieredStoreServesFromMemoryUnderDiskFailure(t *testing.T) {
	fault := store.NewFault(store.NewMem(), store.FaultPlan{})
	ts := newBlobStore(fault, true)

	ts.Store("hot", RunResult{MPKI: 1})
	if _, ok := ts.Lookup("hot"); !ok {
		t.Fatal("warm lookup missed")
	}

	// Hard-fail every disk operation.
	fault.SetPlan(store.FaultPlan{GetErrorRate: 1, PutErrorRate: 1})

	if r, ok := ts.Lookup("hot"); !ok || r.MPKI != 1 {
		t.Error("memory tier stopped serving while disk was failing")
	}
	ts.Store("fresh", RunResult{MPKI: 2})
	if r, ok := ts.Lookup("fresh"); !ok || r.MPKI != 2 {
		t.Error("new results not landing in memory while disk was failing")
	}
	if ts.Health().Errors == 0 {
		t.Error("disk failures never surfaced in Health().Errors")
	}

	// Sustained failure trips the breaker (default: 8 failures in the
	// last 16 ops): disk is then skipped entirely and MemOnlyOps grows.
	for i := 0; i < 16; i++ {
		ts.Lookup("absent")
	}
	h := ts.Health()
	if h.BreakerState != store.BreakerOpen {
		t.Fatalf("breaker state = %q after sustained failure, want open", h.BreakerState)
	}
	if h.BreakerTrips == 0 {
		t.Error("breaker trip not counted")
	}
	opsBefore, memOnlyBefore := fault.Ops(), h.MemOnlyOps
	ts.Lookup("absent")
	ts.Store("while-open", RunResult{MPKI: 3})
	// Counting is a backend operation too (over a remote peer, a
	// request): the last known disk count or the memory tier's, whichever
	// is larger, stands in.
	if n := ts.Len(); n != 3 {
		t.Errorf("Len() while the breaker was open = %d, want the memory tier's 3", n)
	}
	if fault.Ops() != opsBefore {
		t.Error("disk tier still reached while the breaker was open")
	}
	if got := ts.Health().MemOnlyOps - memOnlyBefore; got != 3 {
		t.Errorf("MemOnlyOps grew by %d over a lookup, a store and a count, want 3", got)
	}
	if r, ok := ts.Lookup("while-open"); !ok || r.MPKI != 3 {
		t.Error("memory tier dropped a write made while the breaker was open")
	}
}

// TestTieredBreakerRecoversHalfOpen drives the breaker's full recovery
// cycle on a fake clock: trip under failure, reject during cooldown,
// probe half-open after it, and close once the disk is healthy again.
func TestTieredBreakerRecoversHalfOpen(t *testing.T) {
	fault := store.NewFault(store.NewMem(), store.FaultPlan{})
	ts := newBlobStore(fault, true)
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	ts.breaker = store.NewBreaker(store.BreakerConfig{Now: clock})

	ts.Store("k", RunResult{MPKI: 1})
	fault.SetPlan(store.FaultPlan{GetErrorRate: 1})
	for i := 0; i < 8; i++ { // the breaker's threshold
		ts.Lookup("absent")
	}
	if got := ts.breaker.State(); got != store.BreakerOpen {
		t.Fatalf("breaker = %q after threshold failures, want open", got)
	}

	// During cooldown the disk is untouched.
	opsBefore := fault.Ops()
	ts.Lookup("absent")
	if fault.Ops() != opsBefore {
		t.Error("disk probed during cooldown")
	}

	// Past cooldown with the disk healthy again: one half-open probe
	// closes the breaker and write-through resumes.
	fault.SetPlan(store.FaultPlan{})
	now = now.Add(2 * time.Minute)
	ts.Lookup("absent")
	if got := ts.breaker.State(); got != store.BreakerClosed {
		t.Fatalf("breaker = %q after healthy probe, want closed", got)
	}
	ts.Store("post-recovery", RunResult{MPKI: 9})
	if b, ok, _ := fault.Get("post-recovery"); !ok || len(b) == 0 {
		t.Error("write-through did not resume after recovery")
	}
}

// TestTieredLenNeverVotesHealthy polls Len — what every /v1/stats and
// /v1/metrics scrape does — against a tier whose reads and writes fail
// while its count (a counter read over a directory) keeps succeeding:
// the polls must neither keep the breaker from tripping nor, after the
// cooldown, take the half-open probe and close it over a failing disk.
func TestTieredLenNeverVotesHealthy(t *testing.T) {
	fault := store.NewFault(store.NewMem(), store.FaultPlan{})
	ts := newBlobStore(fault, true)
	now := time.Unix(0, 0)
	ts.breaker = store.NewBreaker(store.BreakerConfig{Now: func() time.Time { return now }})
	ts.Store("k", RunResult{MPKI: 1})
	fault.SetPlan(store.FaultPlan{GetErrorRate: 1, PutErrorRate: 1})

	// Two polls per failing lookup would hold failures at a third of the
	// window, under the 8-of-16 threshold, if a count recorded a success.
	for i := 0; i < 8; i++ {
		ts.Lookup("absent")
		ts.Len()
		ts.Len()
	}
	if got := ts.breaker.State(); got != store.BreakerOpen {
		t.Fatalf("breaker = %q after eight failed lookups between polls, want open", got)
	}

	now = now.Add(2 * time.Minute)
	opsBefore := fault.Ops()
	if n := ts.Len(); n != 1 {
		t.Errorf("Len() past the cooldown = %d, want the last known 1", n)
	}
	if fault.Ops() != opsBefore {
		t.Error("a poll past the cooldown reached the backend")
	}
	if got := ts.breaker.State(); got == store.BreakerClosed {
		t.Fatal("a poll past the cooldown closed the breaker over a failing disk")
	}
	trips := ts.breaker.Trips()
	ts.Store("probe", RunResult{MPKI: 2})
	if got := ts.breaker.State(); got != store.BreakerOpen || ts.breaker.Trips() != trips+1 {
		t.Errorf("breaker = %q with %d trips after a failing half-open store, want open with %d", got, ts.breaker.Trips(), trips+1)
	}

	// A count that fails is still evidence against the tier: eight
	// failed counts (of three tries each) trip a fresh breaker.
	ts.breaker = store.NewBreaker(store.BreakerConfig{})
	fault.FailNextLens(3 * 8)
	for i := 0; i < 8; i++ {
		ts.Len()
	}
	if got := ts.breaker.State(); got != store.BreakerOpen {
		t.Errorf("breaker = %q after eight failed counts, want open", got)
	}
}

// TestEnginePanicContainment injects a panicking simulation: the
// panicking cell fails with a typed PanicError carrying the panic value
// and stack, every other cell completes and seeds the store, and the
// reported error is the lowest-index failing cell's.
func TestEnginePanicContainment(t *testing.T) {
	o := engineTestOptions()
	cfgBad := o.config("Web Search", DesignBaseline)
	cfgGood := o.config("OLTP Oracle", DesignBaseline)
	cache := NewResultCache()
	e := NewEngine(2, cache)
	e.runBatch = func(cfgs []Config) ([]RunResult, error) {
		if cfgs[0].Workload == "Web Search" {
			panic("chaos: injected panic")
		}
		return RunBatch(cfgs)
	}

	_, err := e.RunAll([]Cell{cell(cfgBad), cell(cfgGood)})
	if err == nil {
		t.Fatal("panicking cell did not fail the grid")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T (%v), want *PanicError", err, err)
	}
	if pe.Value != "chaos: injected panic" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = {Value: %q, Stack: %d bytes}, want value and stack", pe.Value, len(pe.Stack))
	}
	if retry.Transient(err) {
		t.Error("panics are deterministic and must not classify as transient")
	}
	if _, ok := cache.Lookup(cfgGood.Key()); !ok {
		t.Error("healthy cell did not complete and seed the store")
	}
	if got := e.Stats().Panicked; got != 1 {
		t.Errorf("Stats().Panicked = %d, want 1", got)
	}
}

// TestEngineBatchPanicFallsBackPerCell panics every batch of two or
// more: the engine must re-run the members one by one, as batches of one
// through the same seam, and — since those run the real simulator here —
// the grid then completes with correct results.
func TestEngineBatchPanicFallsBackPerCell(t *testing.T) {
	o := engineTestOptions()
	o.Workloads = []string{"Web Search"}
	cells := chaosCells(o) // one workload, three designs: one batch
	cache := NewResultCache()
	e := NewEngine(2, cache)
	e.runBatch = func(cfgs []Config) ([]RunResult, error) {
		if len(cfgs) > 1 {
			panic("chaos: batch panic")
		}
		return RunBatch(cfgs)
	}

	want, err := NewEngine(2, NewResultCache()).RunAll(cells)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.RunAll(cells)
	if err != nil {
		t.Fatalf("grid failed despite per-cell fallback: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("fallback results differ from the batch-free run")
	}
	if got := e.Stats().Panicked; got != 1 {
		t.Errorf("Stats().Panicked = %d, want 1 (the batch attempt)", got)
	}
}

// TestEngineBatchPanicIsolatesMember panics whatever batch holds one
// design: the batch of three fails, then that member alone; the other two
// succeed, with the results of an undisturbed engine, and seed the store.
func TestEngineBatchPanicIsolatesMember(t *testing.T) {
	o := engineTestOptions()
	o.Workloads = []string{"Web Search"}
	cells := chaosCells(o)
	bad := cells[1].Config.Design
	cache := NewResultCache()
	e := NewEngine(2, cache)
	e.runBatch = func(cfgs []Config) ([]RunResult, error) {
		for _, cfg := range cfgs {
			if cfg.Design == bad {
				panic("chaos: member panic")
			}
		}
		return RunBatch(cfgs)
	}

	_, err := e.RunAll(cells)
	var pe *PanicError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "cell "+cells[1].Label+":") {
		t.Fatalf("error %v, want cell %s's *PanicError", err, cells[1].Label)
	}
	for _, i := range []int{0, 2} {
		want, err := Run(cells[i].Config)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := cache.Lookup(cells[i].Config.Key()); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: not completed with Run's result beside the panicking member", cells[i].Label)
		}
	}
	if _, ok := cache.Lookup(cells[1].Config.Key()); ok {
		t.Error("the panicking member seeded the store")
	}
	if got := e.Stats().Panicked; got != 2 {
		t.Errorf("Stats().Panicked = %d, want 2 (the batch, then the member alone)", got)
	}
}

// TestEngineWatchdogTimesOutStuckCell wedges one cell forever: the
// watchdog must fail it with a transient TimeoutError while the rest of
// the grid completes, and the stuck cell's worker slot is freed.
func TestEngineWatchdogTimesOutStuckCell(t *testing.T) {
	o := engineTestOptions()
	cfgStuck := o.config("Web Search", DesignBaseline)
	cfgGood := o.config("OLTP Oracle", DesignBaseline)
	block := make(chan struct{})
	defer close(block)

	cache := NewResultCache()
	e := NewEngine(1, cache) // one slot: a leaked slot would wedge the grid
	e.SetCellTimeout(100 * time.Millisecond)
	e.runBatch = func(cfgs []Config) ([]RunResult, error) {
		if cfgs[0].Workload == "Web Search" {
			<-block
		}
		return []RunResult{{MPKI: 1}}, nil
	}

	_, err := e.RunAll([]Cell{cell(cfgStuck), cell(cfgGood)})
	if err == nil {
		t.Fatal("stuck cell did not fail the grid")
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error is %T (%v), want *TimeoutError", err, err)
	}
	if te.Timeout != 100*time.Millisecond || te.Cells != 1 {
		t.Errorf("TimeoutError = %+v", te)
	}
	if !retry.Transient(err) {
		t.Error("watchdog timeouts must classify as transient (retryable)")
	}
	if !strings.Contains(err.Error(), "watchdog") {
		t.Errorf("error %q does not name the watchdog", err)
	}
	if _, ok := cache.Lookup(cfgGood.Key()); !ok {
		t.Error("grid did not continue past the stuck cell — worker slot not freed")
	}
	if got := e.Stats().TimedOut; got != 1 {
		t.Errorf("Stats().TimedOut = %d, want 1", got)
	}
}

// TestChaosFaultStoreDeterministic re-runs the same fault schedule and
// grid twice: same seed, same injected outcomes, same counters — the
// harness itself is reproducible.
func TestChaosFaultStoreDeterministic(t *testing.T) {
	run := func() (int64, int64) {
		fault := store.NewFault(store.NewMem(), chaosPlan(99))
		ds := newBlobStore(fault, false)
		for i := 0; i < 50; i++ {
			key := strings.Repeat("k", 1+i%5) + string(rune('a'+i%7))
			ds.Store(key, RunResult{MPKI: float64(i)})
			ds.Lookup(key)
		}
		return fault.Injected(), ds.Health().Errors
	}
	i1, e1 := run()
	i2, e2 := run()
	if i1 != i2 || e1 != e2 {
		t.Errorf("same seed diverged: injected %d vs %d, errors %d vs %d", i1, i2, e1, e2)
	}
	if i1 == 0 {
		t.Error("schedule injected nothing")
	}
}
