package main

import (
	"math"

	"shift"
)

// This file is the single table of what the benchmark runs and what it
// reports. BENCHMARK.json repeats the names (a test keeps the two in
// step); README.md explains them.

// workloadDef names one workload and says why it exists.
type workloadDef struct {
	Name string
	Why  string
	// service workloads drive a shiftd child; the others call the
	// library in the worker process.
	service bool
}

const (
	wSweepExact   = "sweep_exact"
	wSweepSampled = "sweep_sampled"
	wServiceCold  = "service_cold"
	wServiceHot   = "service_hot"
)

var workloads = []workloadDef{
	{Name: wSweepExact, Why: "a paper figure grid run exactly through the library: the per-record detailed step, caches, predictor and prefetchers are nearly all of the time"},
	{Name: wSweepSampled, Why: "the same grid sampled over a 10x window: functional fast-forward, stream generation and cache state copies dominate, the detailed step is a small share"},
	{Name: wServiceCold, service: true, Why: "many small never-seen cells through shiftd jobs: system construction, keys, store puts, event log and JSON dominate; per-record stepping is the minority"},
	{Name: wServiceHot, service: true, Why: "replayed cells through shiftd jobs, every one a store hit: HTTP, JSON, job admission, queue and store gets are all of the time; nothing is simulated"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef is one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; layer metrics have
// none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the system sees, reported by every
// workload with tracing off. The bounds are calibrated (README,
// "Calibration"): each is at least twice the widest spread and four
// times the widest disagreement between two sets of runs seen for it.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cells_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// stepDesigns are the designs with a per-record cost row; design minus
// Baseline is that prefetcher's cost.
var stepDesigns = []shift.Design{
	shift.DesignBaseline, shift.DesignNextLine, shift.DesignPIF2K, shift.DesignPIF32K,
	shift.DesignZeroLatSHIFT, shift.DesignSHIFT, shift.DesignTIFS,
}

// warmDesigns are the designs with a functional fast-forward cost row.
var warmDesigns = []shift.Design{shift.DesignBaseline, shift.DesignPIF32K, shift.DesignSHIFT}

// perLayer lists every layer metric, in the order README's
// layer→end-to-end table uses. A traced run reports all of them.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	m := []metricDef{
		lo("workload.gen_ns_per_rec", "ns"),
		lo("workload.graph_build_ms", "ms"),
		lo("bpred.predict_ns_per_rec", "ns"),
		lo("cache.l1i_access_ns", "ns"),
		lo("cache.llc_access_ns", "ns"),
		lo("noc.account_ns", "ns"),
		lo("cache.copystate_us", "us"),
	}
	for _, d := range stepDesigns {
		m = append(m, lo("sim.step_ns_per_rec."+d.String(), "ns"))
	}
	for _, d := range warmDesigns {
		m = append(m, lo("sim.warm_ns_per_rec."+d.String(), "ns"))
	}
	m = append(m,
		lo("sim.cell_fixed_ms", "ms"),
		hi("sim.batch_speedup", "ratio"),
		hi("sim.sampled_speedup", "ratio"),

		hi("model.shift_speedup_pct.oltp_oracle", "pct"),
		hi("model.shift_speedup_pct.web_search", "pct"),
		hi("model.pif32k_speedup_pct.oltp_oracle", "pct"),
		lo("model.shift_mpki.oltp_oracle", "mpki"),
		hi("model.shift_covered_pct.oltp_oracle", "pct"),
		lo("model.sampled_max_thr_err_pct", "pct"),
		lo("model.sampled_max_mpki_err_pct", "pct"),

		lo("engine.hit_us_per_cell", "us"),
		lo("engine.key_us", "us"),
		hi("engine.parallel_speedup", "ratio"),

		lo("store.mem_get_us", "us"),
		lo("store.mem_put_us", "us"),
		lo("store.disk_get_us", "us"),
		lo("store.disk_put_us", "us"),
		lo("store.tiered_get_us", "us"),
		lo("store.tiered_put_us", "us"),
		lo("store.remote_get_us", "us"),
		lo("store.remote_put_us", "us"),
		lo("store.blob_bytes", "bytes"),

		lo("wal.append_sync_us", "us"),
		lo("wal.append_nosync_us", "us"),
		lo("wal.replay_us_per_rec", "us"),
		lo("jobs.submit_us", "us"),
		lo("jobs.cell_overhead_us", "us"),
		lo("jobs.journaled_submit_us", "us"),
		lo("spec.compile_us", "us"),

		lo("shiftd.run_hot_us", "us"),
		lo("shiftd.grid_hot_us_per_cell", "us"),
		lo("shiftd.job_submit_ms", "ms"),
		lo("shiftd.job_latency_p50_ms", "ms"),
		lo("shiftd.job_latency_p99_ms", "ms"),
		hi("shiftd.job_latency_samples", "count"),
		lo("shiftd.overhead_ratio_cold", "ratio"),
		hi("shiftd.durable_hot_cells_per_s", "1/s"),
		lo("shiftd.durable_overhead_ratio", "ratio"),
		hi("shiftd.disk_cold_cells_per_s", "1/s"),
		hi("cluster.cold_cells_per_s", "1/s"),
		lo("cluster.overhead_ratio", "ratio"),

		// These five describe the workload the traced run was given, so
		// the driver's per-workload record keeps them apart; the issue's
		// ".<workload>" suffix would have made every traced run execute
		// all four workloads.
		lo("bench.trace_overhead_pct", "pct"),
		lo("bench.rep_iqr_pct", "pct"),
		lo("bench.canary_ms", "ms"),
		lo("bench.canary_drift_pct", "pct"),
		lo("proc.cpu_s_per_kcell", "s"),
	)
	return m
}

// sizing is the input size of every workload. The stated sizes are the
// workload definitions (README); smoke shrinks them so a test can run
// every code path, service child included, in seconds.
type sizing struct {
	sweepWorkloads []string
	designs        []shift.Design
	sweepCores     int
	exactWarm      int64
	exactMeasure   int64
	sampledMeasure int64
	sampling       shift.Sampling

	svcCores          int
	svcWarm           int64
	svcMeasure        int64
	coldJobsPerClient int
	hotDistinctJobs   int
	hotJobsPerClient  int

	// nominalReps is the number of timed repetitions that fill 20 s on
	// the host the benchmark was sized on, when that host is quiet;
	// minReps is the fewest one process does (three processes: R >= 9).
	nominalReps map[string]int
	minReps     int
	traceReps   int
}

// clients is fixed: one closed-loop client is dominated by wake-up
// latency (a 20 % range over three runs), two are not, and the host has
// two processors.
const clients = 2

// clientWorkloads gives each closed-loop client its catalog workload.
var clientWorkloads = [clients]string{"OLTP Oracle", "Web Search"}

var g12Designs = []shift.Design{
	shift.DesignBaseline, shift.DesignNextLine, shift.DesignPIF2K,
	shift.DesignPIF32K, shift.DesignZeroLatSHIFT, shift.DesignSHIFT,
}

func fullSizing() sizing {
	return sizing{
		sweepWorkloads: clientWorkloads[:],
		designs:        g12Designs,
		sweepCores:     16,
		exactWarm:      20000,
		exactMeasure:   20000,
		sampledMeasure: 200000,
		sampling:       shift.Sampling{Period: 40, IntervalRecords: 500, WarmupFraction: 0.3},

		svcCores:          4,
		svcWarm:           500,
		svcMeasure:        500,
		coldJobsPerClient: 30,
		hotDistinctJobs:   16,
		hotJobsPerClient:  600,

		nominalReps: map[string]int{wSweepExact: 10, wSweepSampled: 10, wServiceCold: 18, wServiceHot: 30},
		minReps:     3,
		traceReps:   3,
	}
}

func smokeSizing() sizing {
	return sizing{
		sweepWorkloads: []string{"Web Search"},
		designs:        []shift.Design{shift.DesignBaseline, shift.DesignSHIFT},
		sweepCores:     4,
		exactWarm:      2000,
		exactMeasure:   2000,
		sampledMeasure: 20000,
		sampling:       shift.Sampling{Period: 5, IntervalRecords: 500, WarmupFraction: 0.3},

		svcCores:          2,
		svcWarm:           300,
		svcMeasure:        300,
		coldJobsPerClient: 2,
		hotDistinctJobs:   2,
		hotJobsPerClient:  4,

		nominalReps: map[string]int{wSweepExact: 1, wSweepSampled: 1, wServiceCold: 1, wServiceHot: 1},
		minReps:     1,
		traceReps:   1,
	}
}

// repsPerProcess turns the run length the driver asks for into the
// number of timed repetitions each of a run's processes does. The count
// is a function of --seconds alone, never of how fast the host happens
// to be: shiftd keeps every finished job, so its peak memory follows
// the number of repetitions, and attempted cells stay the same on every
// run.
func (z sizing) repsPerProcess(workload string, seconds int) int {
	r := int(math.Round(float64(z.nominalReps[workload]) * float64(seconds) / (20 * processes)))
	if r < z.minReps {
		r = z.minReps
	}
	return r
}

// cellsPerRep is the number of cells one repetition requests.
func (z sizing) cellsPerRep(workload string) int {
	switch workload {
	case wServiceCold:
		return clients * z.coldJobsPerClient * len(z.designs)
	case wServiceHot:
		return clients * z.hotJobsPerClient * len(z.designs)
	default:
		return len(z.sweepWorkloads) * len(z.designs)
	}
}

// grid builds the sweep grid for a bench seed.
func (z sizing) grid(seed int64, sampled bool) []shift.Cell {
	var cells []shift.Cell
	for _, w := range z.sweepWorkloads {
		for _, d := range z.designs {
			c := shift.Config{
				Workload: w, Design: d, CoreType: shift.LeanOoO, Cores: z.sweepCores,
				WarmupRecords: z.exactWarm, MeasureRecords: z.exactMeasure, Seed: seed,
			}
			if sampled {
				c.MeasureRecords = z.sampledMeasure
				c.Sampling = z.sampling
			}
			cells = append(cells, shift.Cell{Label: w + "/" + d.String(), Config: c})
		}
	}
	return cells
}
