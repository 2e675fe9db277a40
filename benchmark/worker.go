package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"shift"
)

// A worker is a fresh process that sets one workload up and then runs
// timed repetitions of it. The harness starts
// workers one after another and reads one JSON report from each
// worker's standard output.

const (
	phaseTimed  = "timed"  // set up, then the timed repetitions
	phaseTrace  = "trace"  // set up, untraced then traced repetitions
	phaseLayers = "layers" // the layer micro-loops and service layer rows
	// phaseParallel is the one layer row that needs every processor;
	// its worker alone is not confined to one.
	phaseParallel = "parallel"
)

// workerArgs is what the harness tells a worker.
type workerArgs struct {
	Workload string
	Phase    string
	Seed     int64
	Reps     int
	Smoke    bool
	// StartNs is the harness clock just before it started the worker
	// process; setup_s runs from here to the first timed repetition.
	StartNs int64
	Shiftd  string
	OutDir  string
}

// workerReport is what a worker tells the harness.
type workerReport struct {
	SetupS float64 `json:"setup_s"`
	// RepS are the timed repetition wall times with tracing off;
	// TracedRepS the traced ones (trace phase only).
	RepS       []float64 `json:"rep_s"`
	TracedRepS []float64 `json:"traced_rep_s,omitempty"`
	// Attempted and Failed count requested cells of the timed
	// repetitions.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Notes     []string `json:"notes,omitempty"`
	// TotalCells counts every cell the program under test was asked
	// for, warm-up and priming included (for proc.cpu_s_per_kcell).
	TotalCells int `json:"total_cells"`
	// Child* describe the shiftd child (service workloads); for the
	// sweeps the worker process is the program under test and the
	// harness reads its usage itself.
	ChildMaxRSSKB int64   `json:"child_max_rss_kb,omitempty"`
	ChildCPUS     float64 `json:"child_cpu_s,omitempty"`
	// CanaryMs are the host canary's readings: one before each timed
	// repetition and one after the last.
	CanaryMs []float64 `json:"canary_ms"`
	// Layers are the layer metrics by name (layers and parallel phases).
	Layers map[string]float64 `json:"layers,omitempty"`
}

// fail records a failed check. Every failed check names cells, so the
// count feeds the failed-cell total the contract asks for.
func (r *workerReport) fail(cells int, format string, a ...any) {
	r.Failed += cells
	if len(r.Notes) < 20 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
	}
}

// runWorker is the worker process's main.
func runWorker(a workerArgs) error {
	def, ok := workloadByName(a.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", a.Workload)
	}
	z := fullSizing()
	if a.Smoke {
		z = smokeSizing()
	}
	var rep workerReport
	var err error
	switch {
	case a.Phase == phaseLayers || a.Phase == phaseParallel:
		// A layer row is either measured or absent: what stopped the
		// loops is a note, and the rows before it are kept.
		var stopped error
		if rep.Layers, stopped = layerMetrics(a.Seed, a.Smoke, a.Phase == phaseParallel, a.OutDir, a.Shiftd); stopped != nil {
			rep.Notes = append(rep.Notes, stopped.Error())
		}
	case def.service:
		err = runService(a, z, &rep)
	default:
		err = runSweep(a, z, &rep)
	}
	if err != nil {
		return err
	}
	if rep.Failed > rep.Attempted {
		rep.Failed = rep.Attempted
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// sinceStart is the setup clock: seconds since the harness started this
// worker process.
func sinceStart(a workerArgs) float64 {
	return float64(time.Now().UnixNano()-a.StartNs) / 1e9
}

// runSweep runs a sweep workload in this process. One repetition is a
// fresh engine and store running the whole grid serially, batching on.
func runSweep(a workerArgs, z sizing, rep *workerReport) error {
	cells := z.grid(a.Seed, a.Workload == wSweepSampled)
	perRep := len(cells)

	// repetition runs the grid once. rec and trace are nil/"" with
	// tracing off.
	repetition := func(rec *recorder, trace string) ([]shift.RunResult, shift.EngineStats, time.Duration, error) {
		// Every repetition starts from a collected heap, outside the
		// clock: otherwise how much of the previous repetition's garbage
		// is still resident — and so the peak — depends on when the
		// collector happened to run, which on a busy host varied the
		// peak by 14 % between runs of the same code.
		runtime.GC()
		start := time.Now()
		var store shift.ResultStore = shift.NewResultCache()
		var cur *current
		root := 0
		if rec != nil {
			cur = &current{}
			root = rec.begin(trace, "repetition", 0)
			store = tracedStore{ResultStore: store, rec: rec, cur: cur}
		}
		e := shift.NewEngine(1, store)
		if rec != nil {
			e.SetExecutor(tracedExec{rec: rec, cur: cur})
			id := rec.begin(trace, "engine.run_all", root)
			cur.set(trace, id)
			defer rec.end(root)
			defer rec.end(id)
		}
		res, err := e.RunAll(cells)
		return res, e.Stats(), time.Since(start), err
	}

	// Set-up: the workload graphs are built lazily by the first run, so
	// the one warm-up repetition is the set-up.
	first, _, _, err := repetition(nil, "")
	if err != nil {
		return fmt.Errorf("warm-up repetition: %w", err)
	}
	rep.TotalCells += perRep
	rep.SetupS = sinceStart(a)

	// counters sums the engine's own counts over the traced
	// repetitions, for the trace file.
	counters := map[string]int64{}
	timed := func(rec *recorder, k int) float64 {
		res, st, d, err := repetition(rec, fmt.Sprintf("rep-%d", k))
		rep.Attempted += perRep
		rep.TotalCells += perRep
		switch {
		case err != nil:
			rep.fail(perRep, "repetition %d: %v", k, err)
		case st.Simulated != int64(perRep) || st.StoreHits != 0 || st.StoreMisses != int64(perRep) ||
			st.Batched != int64(perRep):
			rep.fail(perRep, "repetition %d: engine stats %+v, want %d simulated, batched and missed, 0 hits", k, st, perRep)
		default:
			for i := range res {
				if res[i] != first[i] {
					rep.fail(1, "repetition %d cell %s differs from the first run", k, cells[i].Label)
				}
			}
		}
		if rec != nil {
			counters["cells"] += int64(perRep)
			counters["simulated"] += st.Simulated
			counters["batched"] += st.Batched
			counters["streams_shared"] += st.StreamsShared
			counters["sampled_cells"] += st.SampledCells
			counters["store_hits"] += st.StoreHits
			counters["store_misses"] += st.StoreMisses
		}
		return d.Seconds()
	}

	for k := 0; k < a.Reps; k++ {
		rep.CanaryMs = append(rep.CanaryMs, canaryMs())
		rep.RepS = append(rep.RepS, timed(nil, k))
	}
	rep.CanaryMs = append(rep.CanaryMs, canaryMs())
	if a.Phase == phaseTrace {
		rec := newRecorder()
		for k := 0; k < z.traceReps; k++ {
			rep.TracedRepS = append(rep.TracedRepS, timed(rec, a.Reps+k))
		}
		if err := rec.write(filepath.Join(a.OutDir, traceName(a.Workload)), a.Workload, a.Seed, counters); err != nil {
			return err
		}
	}

	// One sampled cell must match between Run and RunBatch, whichever
	// sweep this is: the batch path is what the timed repetitions used.
	probe := cells[len(cells)-1].Config
	probe.Cores = 4
	probe.WarmupRecords, probe.MeasureRecords = 2000, 20000
	probe.Sampling = shift.Sampling{Period: 5, IntervalRecords: 500, WarmupFraction: 0.3}
	base := probe
	base.Design = shift.DesignBaseline
	single, err1 := shift.Run(probe)
	batch, err2 := shift.RunBatch([]shift.Config{base, probe})
	if err1 != nil || err2 != nil || single != batch[1] {
		rep.fail(1, "sampled probe: Run and RunBatch disagree (%v, %v)", err1, err2)
	}
	return nil
}
