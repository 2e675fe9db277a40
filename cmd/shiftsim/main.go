// Command shiftsim regenerates the SHIFT paper's figures and tables from
// the simulator.
//
// Usage:
//
//	shiftsim -experiment fig8                 # one experiment, full scale
//	shiftsim -experiment all -quick           # everything, reduced scale
//	shiftsim -experiment fig7 -workloads "OLTP Oracle,Web Search"
//	shiftsim -experiment fig8 -spec burst.json       # declarative workload spec
//	shiftsim -experiment fig7 -workloads "Web Search" -spec a.json,b.json
//	shiftsim -experiment fig6 -sizes 1024,8192,32768
//	shiftsim -experiment all -parallel 8      # 8 engine workers (same output)
//	shiftsim -experiment fig8 -cache=false    # disable cell memoization
//	shiftsim -experiment fig7 -v              # engine summary (batched cells etc.)
//	shiftsim -experiment fig7 -sample 10      # interval sampling, 1-in-10 detailed
//	shiftsim -experiment all -cache-dir ~/.shiftcache   # persist cells across runs
//	shiftsim -experiment fig8 -cpuprofile cpu.out -memprofile mem.out
//	shiftsim -timeline -workloads "Web Search" -cores 4   # per-interval NDJSON
//
// `shiftsim -help` lists the experiments (shift.Experiments, and all).
//
// The -cpuprofile and -memprofile flags write pprof profiles covering the
// experiment runs (inspect with `go tool pprof`); see the README's
// "Performance" section for the profiling workflow.
//
// -timeline runs no experiment: it writes the simulator timeline of every
// design point on each selected workload to standard output, one NDJSON
// line per measured interval (see shift.WriteTimeline).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"shift"
)

func main() {
	var (
		experiment = flag.String("experiment", "fig8", "experiment to run ("+strings.Join(append(shift.Experiments(), "all"), ", ")+")")
		workloads  = flag.String("workloads", "", "comma-separated workload subset (default: all seven)")
		specFiles  = flag.String("spec", "", "comma-separated workload spec files (JSON); each compiled spec is appended to the workload set")
		cores      = flag.Int("cores", shift.DefaultOptions().Cores, "number of cores (1-16)")
		warmup     = flag.Int64("warmup", 0, "warmup records per core (0 = scale default)")
		measure    = flag.Int64("measure", 0, "measured records per core (0 = scale default)")
		seed       = flag.Int64("seed", 1, "simulator seed")
		quick      = flag.Bool("quick", false, "reduced scale: 25k+25k records per core instead of 60k+60k")
		sizes      = flag.String("sizes", "", "comma-separated aggregate history sizes for fig6")
		coreType   = flag.String("core", "lean-ooo", "core type: fat-ooo, lean-ooo, lean-io")
		parallel   = flag.Int("parallel", 0, "experiment-engine workers (0 = GOMAXPROCS, 1 = serial; output is identical either way)")
		useCache   = flag.Bool("cache", true, "memoize per-cell results across experiments (shared baselines are simulated once)")
		cacheDir   = flag.String("cache-dir", "", "persist per-cell results under this directory (tiered memory-over-disk store; a repeated sweep across process restarts simulates nothing)")
		sample     = flag.Int64("sample", 0, "sampling period: simulate 1 interval in N in detail and fast-forward the rest with functional warming (0 or 1 = exact, the default; sampled results carry error bounds and are approximations)")
		sampleIntv = flag.Int64("sample-interval", 0, "measured interval length in records per core for -sample (0 = default 500)")
		sampleWarm = flag.Float64("sample-warm", 0, "fraction of each interval re-simulated in detail before measuring for -sample (0 = default 0.25)")
		sampleConf = flag.Float64("sample-confidence", 0, "confidence level of the reported error bounds for -sample: 0.90, 0.95, or 0.99 (0 = default 0.95)")
		verbose    = flag.Bool("v", false, "print an engine summary (simulated/batched/stream-generations-avoided cells) after the runs")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (after the runs) to this file")
		timeline   = flag.Bool("timeline", false, "instead of an experiment, write every design's per-interval timeline on the selected workloads as NDJSON (an exact run reports every 500 records a core)")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		// fail() exits through os.Exit, so stop explicitly there too.
		stopCPUProfile = func() { pprof.StopCPUProfile(); f.Close() }
		defer stopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "shiftsim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "shiftsim:", err)
			}
		}()
	}

	opts := shift.DefaultOptions()
	if *quick {
		opts = shift.QuickOptions()
	}
	opts.Cores = *cores
	if *warmup > 0 {
		opts.WarmupRecords = *warmup
	}
	if *measure > 0 {
		opts.MeasureRecords = *measure
	}
	opts.Seed = *seed
	opts.Sampling = shift.Sampling{
		Period:          *sample,
		IntervalRecords: *sampleIntv,
		WarmupFraction:  *sampleWarm,
		Confidence:      *sampleConf,
	}
	var store shift.ResultStore
	switch {
	case *cacheDir != "":
		st, err := shift.NewTieredStore(*cacheDir)
		if err != nil {
			fail(err)
		}
		store = st
	case *useCache:
		store = shift.NewResultCache()
	}
	if *workloads != "" {
		for _, w := range strings.Split(*workloads, ",") {
			opts.Workloads = append(opts.Workloads, strings.TrimSpace(w))
		}
	}
	if *specFiles != "" {
		// Compiled specs run exactly like catalog workloads: the returned
		// ID goes into the workload set, figure rows render the spec's
		// display name. -spec alone runs only the specs; combined with
		// -workloads it extends the subset.
		for _, path := range strings.Split(*specFiles, ",") {
			id, err := shift.LoadSpecFile(strings.TrimSpace(path))
			if err != nil {
				fail(err)
			}
			opts.Workloads = append(opts.Workloads, id)
		}
	}
	ct, err := shift.ParseCoreType(*coreType)
	if err != nil {
		fail(err)
	}
	opts.CoreType = ct

	var fig6Sizes []int
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fail(err)
			}
			fig6Sizes = append(fig6Sizes, n)
		}
	}

	names := []string{*experiment}
	if *experiment == "all" {
		names = shift.Experiments()
	}
	// One engine across all experiments of the invocation, so cells
	// shared between figures are deduplicated and the -v summary covers
	// the whole run.
	opts.Engine = shift.NewEngine(*parallel, store)

	if *timeline {
		if err := shift.WriteTimeline(os.Stdout, opts); err != nil {
			fail(err)
		}
		return
	}

	for _, name := range names {
		start := time.Now()
		out, err := runOne(name, opts, fig6Sizes)
		if err != nil {
			fail(err)
		}
		fmt.Println(out)
		fmt.Printf("[%s completed in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	if store != nil {
		if hits, misses := store.Stats(); hits+misses > 0 {
			fmt.Printf("[cell cache: %d hits, %d misses, %d cells stored]\n",
				hits, misses, store.Len())
		}
	}
	if *verbose {
		es := opts.Engine.Stats()
		fmt.Printf("[engine: %d cells simulated (%d sampled), %d batched, %d stream generations avoided, %d deduped]\n",
			es.Simulated, es.SampledCells, es.Batched, es.StreamsShared, es.Deduped)
	}
}

// runOne dispatches one experiment by name through the shared registry
// (shift.RunExperiment — the same dispatch cmd/shiftd serves), keeping
// only the -sizes override for Figure 6 (by name or its bare number,
// as RunExperiment matches them) local to the CLI.
func runOne(name string, opts shift.Options, fig6Sizes []int) (string, error) {
	if len(fig6Sizes) > 0 && (strings.EqualFold(name, "fig6") || name == "6") {
		f, err := shift.RunFigure6(opts, fig6Sizes)
		if err != nil {
			return "", err
		}
		return f.String(), nil
	}
	return shift.RunExperiment(name, opts)
}

// stopCPUProfile flushes the CPU profile on the os.Exit error path.
var stopCPUProfile = func() {}

func fail(err error) {
	stopCPUProfile()
	fmt.Fprintln(os.Stderr, "shiftsim:", err)
	os.Exit(1)
}
