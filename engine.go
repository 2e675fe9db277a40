package shift

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"shift/internal/freelist"
	"shift/internal/sim"
	"shift/internal/store"
)

// Cell is one independent unit of an experiment grid: a fully-specified
// simulation (workload × design × config variant) that the engine can
// execute in any order relative to every other cell.
type Cell struct {
	// Label names the cell in diagnostics ("workload/design/variant");
	// it has no effect on execution or on result identity.
	Label string
	// Config is the simulation to run.
	Config Config
}

// cell is a convenience constructor for grid builders.
func cell(cfg Config, labelParts ...string) Cell {
	label := cfg.Workload + "/" + cfg.Design.String()
	for _, p := range labelParts {
		label += "/" + p
	}
	return Cell{Label: label, Config: cfg}
}

// Engine executes experiment cells across a bounded worker pool and
// merges results deterministically: results are keyed and ordered by
// cell, never by completion time, so a parallel run is bit-identical to
// a serial run for the same seed. An optional ResultStore memoizes
// cells content-addressed by config hash, so repeated sweeps (and grids
// sharing cells, e.g. the per-workload baselines common to most
// figures) skip already-computed work.
//
// The unit of execution is the batch: cells that consume the same trace
// stream (equal Config.Streams — the common shape of a figure grid,
// where every design of a workload reads the identical per-core record
// stream) are partitioned into batches and scheduled as units on the
// pool. Each batch runs through RunBatch, generating its stream once and
// fanning it out to every member, and resolves all of its cells'
// in-flight claims when it completes; a cell that shares its stream with
// no other is a batch of one, through the same path. A batch occupies
// one worker slot (its members execute in lockstep on one goroutine), as
// does each cell a Config cannot express (runSpecs), so the parallelism
// bound keeps meaning "concurrent worker threads". Batching never
// changes results — only which work is shared — and a batch that fails
// is re-run member by member, each a batch of one, which isolates the
// failing member and reproduces every other member's exact result.
//
// An Engine is safe for concurrent use: RunAll may be called from many
// goroutines (the shiftd service shares one Engine across all
// requests), and concurrent calls that need the same cell share a
// single simulation through in-flight deduplication — the first caller
// simulates, every overlapping caller waits for that result. The
// deduplication is best-effort (a cell finishing in the instant between
// another caller's store miss and in-flight check is recomputed —
// harmlessly, since the simulator is deterministic) and never changes
// results, only work. The parallelism bound caps simulations across
// all concurrent callers combined, so operator limits hold under load.
type Engine struct {
	store ResultStore

	// sem bounds simulations ACROSS RunAll calls: each's goroutines only
	// bound one call, but a shared engine (shiftd) serves many callers
	// concurrently, and the operator's parallelism setting must cap the
	// process, not each request. Every simulation site acquires a slot.
	sem chan struct{}

	// flight deduplicates concurrent computations of one cell across
	// RunAll calls; simulated/deduped feed Stats.
	flight    store.Flight[RunResult]
	simulated atomic.Int64
	deduped   atomic.Int64
	// specsRunning counts runSpecs cells holding a worker slot: they have
	// no content address, so flight never sees them, but Inflight must.
	specsRunning atomic.Int64

	// batched counts cells executed in batches of two or more;
	// streamsShared counts the trace-stream generations those batches
	// avoided (K-1 per batch of K).
	batched       atomic.Int64
	streamsShared atomic.Int64

	// sampledCells counts cells simulated in sampled mode (interval
	// sampling with functional warming) rather than exactly.
	sampledCells atomic.Int64

	// Containment (containment.go): panics inside batch execution are
	// recovered into typed PanicErrors, and when cellTimeout is armed
	// (SetCellTimeout) a watchdog converts stuck cells into typed
	// TimeoutErrors instead of wedging a worker slot.
	cellTimeout time.Duration
	panicked    atomic.Int64
	timedOut    atomic.Int64

	// runBatch, when set (per engine, never globally), replaces RunBatch
	// as what exec runs: an installed Executor's ExecBatch, or the chaos
	// suite's panicking or wedged simulations.
	runBatch func([]Config) ([]RunResult, error)
}

// NewEngine returns an engine with the given worker-pool bound
// (0 = runtime.GOMAXPROCS, 1 = serial) and optional result store
// (nil = none; every cell is simulated). The bound caps concurrent
// simulations across all callers of the engine combined.
func NewEngine(parallelism int, rs ResultStore) *Engine {
	p := parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return &Engine{store: rs, sem: make(chan struct{}, p)}
}

// each calls fn(0..n-1) on up to cap(e.sem) goroutines, which take the
// indices in order; at a bound of 1 (or for one index) it loops on the
// calling goroutine. fn must be safe for concurrent calls and takes its
// own slot for whatever it simulates.
func (e *Engine) each(n int, fn func(i int)) {
	w := min(cap(e.sem), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for ; w > 0; w-- {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Executor is the engine's execution strategy: how a batch — the
// stream-sharing cells of a grid, or one cell as a batch of one —
// actually gets simulated once the engine has decided it must run (store
// miss, not already in flight). The default strategy is in-process
// RunBatch; a cluster coordinator installs itself here to route batches
// to remote workers instead.
//
// The determinism contract transfers whole: ExecBatch must return
// results bit-identical to RunBatch(cfgs) — the simulator is a pure
// function of its Config, so any executor that ultimately runs the same
// simulator (locally, on a worker, or on a retry after a worker died)
// satisfies this by construction. Everything else the engine does —
// store memoization, in-flight deduplication, stream-key batching,
// cell-keyed merge — is unchanged, which is what keeps a clustered sweep
// byte-identical to a single-host one.
type Executor interface {
	// ExecBatch runs one shared-stream batch (equal StreamKeys),
	// returning results positionally. An error fails the whole batch;
	// the engine then re-runs each member of a batch of two or more as a
	// batch of one, and a batch of one must fail with the member's own
	// error, as Run(cfgs[0]) would report it.
	ExecBatch(cfgs []Config) ([]RunResult, error)
}

// SetExecutor replaces the engine's execution strategy (nil restores
// the in-process default). Containment still wraps the executor: a
// panicking executor costs one cell, and the watchdog (SetCellTimeout)
// still frees wedged worker slots. Not safe to call concurrently with
// RunAll.
func (e *Engine) SetExecutor(x Executor) {
	e.runBatch = nil
	if x != nil {
		e.runBatch = x.ExecBatch
	}
}

// simulate executes cfgs — one stream-sharing batch — under a single
// worker slot of the engine-wide concurrency bound and returns each
// member's result or error. The members run as one batch; if that
// fails and there is more than one, each is re-run as a batch of one
// through the same exec, which isolates the failing member and
// reproduces its exact error — the simulator is deterministic, so
// partially-simulated batch work is safely recomputed.
func (e *Engine) simulate(cfgs []Config) ([]RunResult, []error) {
	e.sem <- struct{}{}
	defer func() { <-e.sem }()
	rs, errs := make([]RunResult, len(cfgs)), make([]error, len(cfgs))
	e.isolate(cfgs, rs, errs)
	return rs, errs
}

// isolate is simulate's recursion, inside the worker slot.
func (e *Engine) isolate(cfgs []Config, rs []RunResult, errs []error) {
	out, err := e.exec(cfgs)
	if err != nil && len(cfgs) > 1 {
		for i := range cfgs {
			e.isolate(cfgs[i:i+1], rs[i:i+1], errs[i:i+1])
		}
		return
	}
	// A failed batch of two or more is not counted: its members are, one
	// by one, above.
	e.count(len(cfgs), cfgs[0].Sampling.Enabled())
	if err != nil {
		errs[0] = err
		return
	}
	copy(rs, out)
}

// count is the one place simulated cells are counted: n cells run
// together on one stream, sampled or exact.
func (e *Engine) count(n int, sampled bool) {
	e.simulated.Add(int64(n))
	if sampled {
		e.sampledCells.Add(int64(n))
	}
	if n > 1 {
		e.batched.Add(int64(n))
		e.streamsShared.Add(int64(n - 1))
	}
}

// runSpecs runs cells a Config cannot express (SHIFT knobs below the
// design table, probed runs) on the engine's pool, each in a worker slot
// of its own under exec's containment: it counts toward Inflight while
// it holds the slot and as one simulated cell once it is done. Spec
// cells have no content address, so they are neither stored nor
// deduplicated. It returns the results in spec order, or the error of
// the lowest-index failing spec.
func (e *Engine) runSpecs(specs []sim.RunSpec) ([]sim.Result, error) {
	out, errs := make([]sim.Result, len(specs)), make([]error, len(specs))
	e.each(len(specs), func(i int) {
		e.sem <- struct{}{}
		e.specsRunning.Add(1)
		defer func() {
			e.specsRunning.Add(-1)
			<-e.sem
		}()
		defer e.count(1, specs[i].Sampling.Enabled())
		out[i], errs[i] = contain(e, 1, func() (sim.Result, error) { return sim.Run(specs[i]) })
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// settle publishes one simulated cell's outcome: an error is annotated
// with the cell's label, a result seeds the store, and either resolves
// the cell's in-flight claim.
func (e *Engine) settle(key, label string, call *store.Call[RunResult], r RunResult, err error) (RunResult, error) {
	if err != nil {
		err = fmt.Errorf("cell %s: %w", label, err)
	} else if e.store != nil {
		e.store.Store(key, r)
	}
	e.flight.Resolve(key, call, r, err)
	return r, err
}

// engine is the driver-facing engine: Options.Engine, or a default one.
func (o Options) engine() *Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return NewEngine(0, nil)
}

// EngineStats is a point-in-time snapshot of an engine's work counters,
// exposed by shiftd's /v1/stats.
type EngineStats struct {
	// StoreHits and StoreMisses are the attached store's cumulative
	// lookup counts (zero when no store is attached).
	StoreHits, StoreMisses int64
	// StoreCells is the number of results currently stored.
	StoreCells int
	// Simulated counts cells this engine actually simulated.
	Simulated int64
	// Deduped counts cells served by waiting on a concurrent in-flight
	// simulation instead of re-running it.
	Deduped int64
	// Inflight is the number of cells being simulated right now: the
	// Config cells claimed in the in-flight table and the spec cells
	// (runSpecs) holding a worker slot.
	Inflight int
	// Batched counts cells executed in batches of two or more cells
	// on one stream (a cell alone on its stream runs as a batch of
	// one and is not counted here).
	Batched int64
	// StreamsShared counts trace-stream generations avoided by
	// batching: a batch of K cells generates its stream once instead of
	// K times, contributing K-1.
	StreamsShared int64
	// SampledCells counts cells simulated in sampled mode (interval
	// sampling with functional warming) rather than exactly. Sampled
	// and exact results are keyed separately, so the two populations
	// never mix in the store.
	SampledCells int64
	// Panicked counts simulation panics recovered into typed per-cell
	// errors (PanicError). A non-zero count is a simulator bug worth a
	// look — but it cost one cell, not the process.
	Panicked int64
	// TimedOut counts cells (and batches) the watchdog abandoned with a
	// TimeoutError after exceeding the cell timeout.
	TimedOut int64
	// Capacity is the worker-pool bound: the maximum number of
	// simulations in flight at once. Inflight ≥ Capacity means the pool
	// is saturated (shiftd's /v1/readyz reports it when work is also
	// queued).
	Capacity int
}

// Load returns EngineStats' Inflight and Capacity alone — the two read
// without asking the attached store, whose backend may be stalled.
func (e *Engine) Load() (inflight, capacity int) {
	return e.flight.Len() + int(e.specsRunning.Load()), cap(e.sem)
}

// Stats returns a snapshot of the engine's counters, the attached
// store's among them. Safe to call concurrently with RunAll.
func (e *Engine) Stats() EngineStats {
	s := EngineStats{
		Simulated:     e.simulated.Load(),
		Deduped:       e.deduped.Load(),
		Batched:       e.batched.Load(),
		StreamsShared: e.streamsShared.Load(),
		SampledCells:  e.sampledCells.Load(),
		Panicked:      e.panicked.Load(),
		TimedOut:      e.timedOut.Load(),
	}
	s.Inflight, s.Capacity = e.Load()
	if e.store != nil {
		s.StoreHits, s.StoreMisses = e.store.Stats()
		s.StoreCells = e.store.Len()
	}
	return s
}

// lookup consults the attached store, tolerating both a nil interface
// and a nil concrete store.
func (e *Engine) lookup(key string) (RunResult, bool) {
	if e.store == nil {
		return RunResult{}, false
	}
	return e.store.Lookup(key)
}

// KeyedConfig is a Config together with its content address
// (Config.Key), computed once by KeyConfig. Its fields are unexported, so
// a KeyedConfig's key is always the one its own Config hashes to: a caller
// that needs the keys anyway (shiftd's job registry) hashes each cell
// once and hands the engine both through RunKeyed.
type KeyedConfig struct {
	cfg Config
	key string
}

// KeyConfig returns cfg together with cfg.Key().
func KeyConfig(cfg Config) KeyedConfig { return KeyedConfig{cfg: cfg, key: cfg.Key()} }

// Config returns the configuration.
func (k KeyedConfig) Config() Config { return k.cfg }

// Key returns the configuration's content address, Config().Key().
func (k KeyedConfig) Key() string { return k.key }

// RunAll executes every cell and returns the results in cell order:
// out[i] is cells[i]'s result. Duplicate configurations within the grid
// are simulated once and fanned out; cells present in the store are not
// re-simulated; cells already being simulated by a concurrent RunAll
// are waited on, not recomputed. On failure RunAll returns the error of
// the lowest-index failing cell, annotated with its label — exactly the
// error a serial loop would have stopped on, whether the cell was
// simulated here or by a concurrent caller.
func (e *Engine) RunAll(cells []Cell) ([]RunResult, error) {
	ks := make([]KeyedConfig, len(cells))
	for i, c := range cells {
		ks[i] = KeyConfig(c.Config)
	}
	out, errs := e.runCells(ks, cells)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunKeyed is RunAll for a caller that wants every cell's outcome, not
// the grid's, and holds the cells' keys already, so no cell is hashed
// again: out[i] is ks[i]'s result or errs[i] its error, so one failing
// cell costs the others nothing. An error is labelled "workload/design".
// shiftd's job scheduler runs a job's stream-sharing cells through it as
// one grid — one store lookup a cell, one batch for those that must be
// simulated — and journals and publishes each cell on its own; a cluster
// worker answers a batch with it. It reads ks only until it returns.
func (e *Engine) RunKeyed(ks []KeyedConfig) ([]RunResult, []error) {
	return e.runCells(ks, nil)
}

// runCells executes every cell and returns, in cell order, each cell's
// result or its error annotated with its label (a duplicate reports its
// first occurrence's): cells[i].Label, or "workload/design" when cells is
// nil.
func (e *Engine) runCells(ks []KeyedConfig, cells []Cell) ([]RunResult, []error) {
	out, errs := make([]RunResult, len(ks)), make([]error, len(ks))
	// first maps a key to the index of its first occurrence, whose slots
	// of out and errs every duplicate copies at the end.
	first := make(map[string]int, len(ks))
	// Partition first occurrences of unique uncached configs into cells
	// this call owns (it will simulate them and publish the results) and
	// cells owned by a concurrent RunAll (it will wait for theirs).
	type waiter struct {
		idx  int
		call *store.Call[RunResult]
	}
	var owned []int
	var ownedCalls []*store.Call[RunResult]
	var waits []waiter
	hits := 0
	for i := range ks {
		k := ks[i].key
		if _, ok := first[k]; ok {
			continue
		}
		first[k] = i
		if r, ok := e.lookup(k); ok {
			out[i] = r
			hits++
			continue
		}
		// A cell the simulator would refuse is refused here, before it
		// claims a flight or joins a batch: it is neither simulated nor
		// counted, and its batch keeps the shared stream.
		if err := ks[i].cfg.Validate(); err != nil {
			errs[i] = fmt.Errorf("cell %s: %w", labelOf(ks, cells, i), err)
			continue
		}
		c, owner := e.flight.Claim(k)
		if owner {
			owned = append(owned, i)
			ownedCalls = append(ownedCalls, c)
		} else {
			waits = append(waits, waiter{i, c})
			e.deduped.Add(1)
		}
	}

	// A call answered wholly from the store simulates nothing: tables
	// kept on the free lists for the next simulation are held for
	// nothing while the demand is replays, so they go back to the
	// collector, and the next cold cell builds anew, as a first one does.
	if hits > 0 && len(owned) == 0 && len(waits) == 0 {
		freelist.TrimUnlessRunning()
	}

	// Partition the owned cells into stream-sharing batches and
	// simulate batch by batch. Each result is stored and published to
	// concurrent waiters the moment its batch completes, inside the
	// worker — not after the barrier — so waiters never outlive the
	// work they wait on. Workers write the disjoint out/errs slots of
	// their own cells, so the shared slices need no locking.
	if len(owned) > 0 {
		batches := batchOwned(ks, owned)
		e.each(len(batches), func(bi int) {
			e.runOwnedBatch(ks, cells, owned, ownedCalls, batches[bi], out, errs)
		})
	}
	// Collect results simulated by concurrent RunAll calls. Every batch
	// runs and settle resolves every owned claim, so a waiter receives
	// the cell's own outcome, never another cell's error.
	for _, w := range waits {
		out[w.idx], errs[w.idx] = w.call.Wait()
	}
	for i := range ks {
		if f := first[ks[i].key]; f != i {
			out[i], errs[i] = out[f], errs[f]
		}
	}
	return out, errs
}

// batchOwned partitions the owned cells (positions into `owned`) into
// batches of cells consuming the same trace stream, keyed by
// Config.Stream. Batch order follows the first appearance of each
// stream and members stay in ascending cell order, so the schedule is
// deterministic for a given grid.
func batchOwned(ks []KeyedConfig, owned []int) [][]int {
	idx := make(map[StreamID]int, len(owned))
	var batches [][]int
	for j, i := range owned {
		sk := ks[i].cfg.Stream()
		bi, ok := idx[sk]
		if !ok {
			bi = len(batches)
			idx[sk] = bi
			batches = append(batches, nil)
		}
		batches[bi] = append(batches[bi], j)
	}
	return batches
}

// runOwnedBatch executes one stream-sharing batch of owned cells (see
// simulate). Each member's result is stored and its in-flight claim
// resolved here, in the worker; its outcome lands in its cell's slot of
// out and errs, for RunAll's deterministic lowest-index selection.
func (e *Engine) runOwnedBatch(ks []KeyedConfig, cells []Cell, owned []int, ownedCalls []*store.Call[RunResult], members []int, out []RunResult, errs []error) {
	cfgs := make([]Config, len(members))
	for mi, j := range members {
		cfgs[mi] = ks[owned[j]].cfg
	}
	rs, rerrs := e.simulate(cfgs)
	for mi, j := range members {
		i := owned[j]
		var label string
		if rerrs[mi] != nil {
			label = labelOf(ks, cells, i)
		}
		out[i], errs[i] = e.settle(ks[i].key, label, ownedCalls[j], rs[mi], rerrs[mi])
	}
}

// labelOf names cell i in an error: cells[i].Label, or "workload/design"
// when runCells got no cells.
func labelOf(ks []KeyedConfig, cells []Cell, i int) string {
	if cells != nil {
		return cells[i].Label
	}
	return cell(ks[i].cfg).Label
}

// RunOne executes a single configuration through the engine (hitting
// the result store when one is attached).
func (e *Engine) RunOne(cfg Config) (RunResult, error) {
	res, err := e.RunAll([]Cell{cell(cfg)})
	if err != nil {
		return RunResult{}, err
	}
	return res[0], nil
}

// run executes one configuration with the options' engine settings.
func (o Options) run(cfg Config) (RunResult, error) {
	return o.engine().RunOne(cfg)
}
