// Command benchgate turns `go test -bench` output into a committed,
// machine-readable benchmark record (BENCH_5.json) and gates
// throughput, scheduling, and sampled-mode regressions against it.
//
// Modes:
//
//	# Record: parse bench output (possibly -count>1) and write the JSON
//	# record, embedding the pre-optimization baseline for the speedup.
//	go test -run '^$' -bench 'SimulatorThroughput|Figure7Sweep|SampledFigure7' -benchtime 3x -count 5 . > bench/current.txt
//	go run ./cmd/benchgate -new bench/current.txt -baseline-records 812645 -out BENCH_5.json
//
//	# Gate against another run on the SAME host (what CI does: the PR's
//	# base commit and head are benchmarked back to back on one runner,
//	# so hardware differences cancel out):
//	go run ./cmd/benchgate -new head.txt -old base.txt
//
//	# Gate against the committed record (same-host workflows only —
//	# absolute records/s are not portable across machines):
//	go run ./cmd/benchgate -new bench_new.txt -gate BENCH_5.json
//
//	# Gate the engine's scheduling wins, in-process (host-portable
//	# ratios, not absolute times). The parallel gate needs real
//	# hardware parallelism and is loudly skipped below -require-cpus:
//	go run ./cmd/benchgate -new bench_new.txt -min-batched-speedup 1.25 -min-parallel-speedup 1.3
//
//	# Gate the sampled execution mode: the sampled Figure-7 sweep must
//	# beat exact by the floor, at bounded worst-case Throughput error
//	# (in-process ratios, host-portable):
//	go run ./cmd/benchgate -new bench_new.txt -min-sampled-speedup 5.0 -max-sampled-rel-err 0.02
//
// Gates compare best-of-count samples, which suppresses scheduler
// noise, and fail on a regression larger than -tolerance (default 10%).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Record is the committed benchmark state.
type Record struct {
	// Benchmark is the gating benchmark name.
	Benchmark string `json:"benchmark"`
	// CPU is the host the record was produced on (from the bench header).
	CPU string `json:"cpu,omitempty"`
	// RecordsPerSec is the best observed simulator throughput.
	RecordsPerSec float64 `json:"records_per_s"`
	// RecordsPerSecSamples are all observed samples (one per -count).
	RecordsPerSecSamples []float64 `json:"records_per_s_samples,omitempty"`
	// AllocsPerRecord is the amortized allocation rate of a full run
	// (construction + warmup included; steady state is exactly zero and
	// gated by internal/sim's allocation tests).
	AllocsPerRecord float64 `json:"allocs_per_record"`
	// BaselineRecordsPerSec is the pre-optimization throughput measured
	// with the same benchmark on the same host.
	BaselineRecordsPerSec float64 `json:"baseline_records_per_s,omitempty"`
	// SpeedupVsBaseline is RecordsPerSec / BaselineRecordsPerSec.
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
	// Figure7SweepSerialNs / UnbatchedNs / Parallel4Ns record the
	// engine-scheduling benchmark (ns/op, best of count): the default
	// batched serial schedule, the per-cell (pre-batching) serial
	// schedule, and the 4-worker batched pool.
	Figure7SweepSerialNs    float64 `json:"figure7_sweep_serial_ns,omitempty"`
	Figure7SweepUnbatchedNs float64 `json:"figure7_sweep_unbatched_ns,omitempty"`
	Figure7SweepParallel4Ns float64 `json:"figure7_sweep_parallel4_ns,omitempty"`
	// Figure7BatchedSpeedup is unbatched/serial wall-clock: the
	// single-threaded win from simulating every design of a workload in
	// one pass off a shared trace stream.
	Figure7BatchedSpeedup float64 `json:"figure7_batched_speedup,omitempty"`
	// Figure7ParallelSpeedup is serial/parallel4 wall-clock. It is only
	// meaningful on hosts with >= 4 CPUs — benchgate refuses to record
	// it below -require-cpus, so a committed record can never carry a
	// starved-host artifact; the recording host's CPU count is in CPUs.
	Figure7ParallelSpeedup float64 `json:"figure7_parallel_speedup,omitempty"`
	// SampledFigure7ExactNs / SampledNs record the sampled-execution
	// benchmark (ns/op, best of count): the exact Figure-7 sweep at the
	// long window and the same sweep under interval sampling.
	SampledFigure7ExactNs float64 `json:"sampled_figure7_exact_ns,omitempty"`
	SampledFigure7Ns      float64 `json:"sampled_figure7_ns,omitempty"`
	// SampledSpeedup is exact/sampled wall-clock on the sweep.
	SampledSpeedup float64 `json:"sampled_speedup,omitempty"`
	// SampledMaxRelErr is the worst relative Throughput (IPC-class)
	// error of the sampled sweep versus its exact reference, worst
	// sample across -count runs (identical across runs in practice:
	// the simulator is deterministic).
	SampledMaxRelErr float64 `json:"sampled_max_rel_err,omitempty"`
	// SampledMaxMPKIRelErr is the analogous worst MPKI error
	// (informational; the interval-level miss process is bursty, which
	// is what the per-run confidence intervals quantify).
	SampledMaxMPKIRelErr float64 `json:"sampled_max_mpki_rel_err,omitempty"`
	// CPUs is runtime.NumCPU() on the recording host.
	CPUs int `json:"cpus,omitempty"`
}

// parsed is everything benchgate extracts from one bench output file.
type parsed struct {
	cpu              string
	recordsPerSec    []float64
	allocsPerRec     []float64
	sweepSerialNs    []float64
	sweepUnbatchedNs []float64
	sweepPar4Ns      []float64
	sampledExactNs   []float64
	sampledNs        []float64
	sampledRelErr    []float64
	sampledMPKIErr   []float64
	throughputName   string
}

// parseBench scans `go test -bench` output. Metric lines look like:
//
//	BenchmarkSimulatorThroughput  3  1419e8 ns/op  0.0097 allocs/record  2220787 records/s  ...
//	BenchmarkFigure7Sweep/serial-8  1  83e9 ns/op  ...
func parseBench(path string) (*parsed, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p := &parsed{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "cpu:") {
			p.cpu = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		metric := func(unit string) (float64, bool) {
			for i := 2; i+1 < len(fields); i += 2 {
				if fields[i+1] == unit {
					v, err := strconv.ParseFloat(fields[i], 64)
					if err == nil {
						return v, true
					}
				}
			}
			return 0, false
		}
		switch {
		case strings.HasPrefix(name, "BenchmarkSimulatorThroughput"):
			p.throughputName = name
			if v, ok := metric("records/s"); ok {
				p.recordsPerSec = append(p.recordsPerSec, v)
			}
			if v, ok := metric("allocs/record"); ok {
				p.allocsPerRec = append(p.allocsPerRec, v)
			}
		case name == "BenchmarkFigure7Sweep/serial":
			if v, ok := metric("ns/op"); ok {
				p.sweepSerialNs = append(p.sweepSerialNs, v)
			}
		case name == "BenchmarkFigure7Sweep/unbatched":
			if v, ok := metric("ns/op"); ok {
				p.sweepUnbatchedNs = append(p.sweepUnbatchedNs, v)
			}
		case name == "BenchmarkFigure7Sweep/parallel4":
			if v, ok := metric("ns/op"); ok {
				p.sweepPar4Ns = append(p.sweepPar4Ns, v)
			}
		case name == "BenchmarkSampledFigure7/exact":
			if v, ok := metric("ns/op"); ok {
				p.sampledExactNs = append(p.sampledExactNs, v)
			}
		case name == "BenchmarkSampledFigure7/sampled":
			if v, ok := metric("ns/op"); ok {
				p.sampledNs = append(p.sampledNs, v)
			}
			if v, ok := metric("max-rel-err"); ok {
				p.sampledRelErr = append(p.sampledRelErr, v)
			}
			if v, ok := metric("max-mpki-rel-err"); ok {
				p.sampledMPKIErr = append(p.sampledMPKIErr, v)
			}
		}
	}
	return p, sc.Err()
}

func best(samples []float64, higherIsBetter bool) float64 {
	if len(samples) == 0 {
		return 0
	}
	b := samples[0]
	for _, v := range samples[1:] {
		if (higherIsBetter && v > b) || (!higherIsBetter && v < b) {
			b = v
		}
	}
	return b
}

func main() {
	var (
		newPath         = flag.String("new", "", "bench output to record or gate (required)")
		outPath         = flag.String("out", "", "write a Record JSON here (record mode)")
		baselineRecords = flag.Float64("baseline-records", 0, "pre-optimization records/s to embed (record mode)")
		gatePath        = flag.String("gate", "", "committed Record JSON to gate against (same-host gate mode)")
		oldPath         = flag.String("old", "", "bench output of the base/old build to gate against (same-runner gate mode)")
		tolerance       = flag.Float64("tolerance", 0.10, "allowed fractional throughput regression before failing")
		minBatched      = flag.Float64("min-batched-speedup", 0, "fail if the in-process batched sweep speedup (unbatched/serial) is below this (0 = no gate)")
		minParallel     = flag.Float64("min-parallel-speedup", 0, "fail if the in-process parallel sweep speedup (serial/parallel4) is below this (0 = no gate)")
		minSampled      = flag.Float64("min-sampled-speedup", 0, "fail if the sampled Figure-7 sweep speedup (exact/sampled) is below this (0 = no gate)")
		maxSampledErr   = flag.Float64("max-sampled-rel-err", 0, "fail if the sampled sweep's worst relative Throughput error exceeds this (0 = no gate)")
		requireCPUs     = flag.Int("require-cpus", 4, "minimum runtime.NumCPU() for the parallel-speedup gate; below it the gate is loudly skipped (a 4-worker pool cannot beat serial without hardware parallelism)")
		printBaseline   = flag.String("print-baseline", "", "print baseline_records_per_s from this Record JSON and exit")
	)
	flag.Parse()
	if *printBaseline != "" {
		data, err := os.ReadFile(*printBaseline)
		if err != nil {
			fail(err)
		}
		var rec Record
		if err := json.Unmarshal(data, &rec); err != nil {
			fail(err)
		}
		fmt.Printf("%.0f\n", rec.BaselineRecordsPerSec)
		return
	}
	if *newPath == "" || (*outPath == "" && *gatePath == "" && *oldPath == "" && *minBatched == 0 && *minParallel == 0 && *minSampled == 0 && *maxSampledErr == 0) {
		fmt.Fprintln(os.Stderr, "benchgate: need -new plus -out (record), -old (same-runner gate), -gate (same-host gate), or a -min-*-speedup floor")
		os.Exit(2)
	}
	p, err := parseBench(*newPath)
	if err != nil {
		fail(err)
	}
	if len(p.recordsPerSec) == 0 {
		fail(fmt.Errorf("no BenchmarkSimulatorThroughput records/s samples in %s", *newPath))
	}
	rec := Record{
		Benchmark:            "BenchmarkSimulatorThroughput",
		CPU:                  p.cpu,
		RecordsPerSec:        best(p.recordsPerSec, true),
		RecordsPerSecSamples: p.recordsPerSec,
		AllocsPerRecord:      best(p.allocsPerRec, false),
	}
	rec.CPUs = runtime.NumCPU()
	if len(p.sweepSerialNs) > 0 {
		rec.Figure7SweepSerialNs = best(p.sweepSerialNs, false)
	}
	if len(p.sweepUnbatchedNs) > 0 {
		rec.Figure7SweepUnbatchedNs = best(p.sweepUnbatchedNs, false)
		if rec.Figure7SweepSerialNs > 0 {
			rec.Figure7BatchedSpeedup = rec.Figure7SweepUnbatchedNs / rec.Figure7SweepSerialNs
		}
	}
	// Parallel-speedup figures are only recorded on hosts with real
	// hardware parallelism: a worker pool cannot beat serial on a
	// starved host, and committing such a measurement (as an early
	// record of this repository once did, from a 1-CPU container)
	// poisons every later same-host comparison. The gate below skips
	// loudly in the same situation; recording must refuse too.
	if len(p.sweepPar4Ns) > 0 {
		if rec.CPUs >= *requireCPUs {
			rec.Figure7SweepParallel4Ns = best(p.sweepPar4Ns, false)
			if rec.Figure7SweepSerialNs > 0 {
				rec.Figure7ParallelSpeedup = rec.Figure7SweepSerialNs / rec.Figure7SweepParallel4Ns
			}
		} else {
			fmt.Printf("benchgate: NOT recording parallel sweep figures: host has %d CPU(s), need >= %d (a pool cannot beat serial without hardware parallelism)\n",
				rec.CPUs, *requireCPUs)
		}
	}
	if len(p.sampledExactNs) > 0 && len(p.sampledNs) > 0 {
		rec.SampledFigure7ExactNs = best(p.sampledExactNs, false)
		rec.SampledFigure7Ns = best(p.sampledNs, false)
		rec.SampledSpeedup = rec.SampledFigure7ExactNs / rec.SampledFigure7Ns
	}
	if len(p.sampledRelErr) > 0 {
		// Worst observed error across samples (deterministic in
		// practice — the simulator is a pure function of its inputs).
		rec.SampledMaxRelErr = best(p.sampledRelErr, true)
	}
	if len(p.sampledMPKIErr) > 0 {
		rec.SampledMaxMPKIRelErr = best(p.sampledMPKIErr, true)
	}

	if *minBatched > 0 {
		if rec.Figure7BatchedSpeedup == 0 {
			fail(fmt.Errorf("no Figure7Sweep serial+unbatched samples in %s for the batched-speedup gate", *newPath))
		}
		fmt.Printf("benchgate: batched sweep speedup %.2fx (unbatched %.0fms / batched %.0fms), floor %.2fx\n",
			rec.Figure7BatchedSpeedup, rec.Figure7SweepUnbatchedNs/1e6, rec.Figure7SweepSerialNs/1e6, *minBatched)
		if rec.Figure7BatchedSpeedup < *minBatched {
			fail(fmt.Errorf("batched sweep speedup %.2fx < %.2fx floor", rec.Figure7BatchedSpeedup, *minBatched))
		}
	}
	if *minParallel > 0 {
		switch {
		case rec.CPUs < *requireCPUs:
			fmt.Printf("benchgate: SKIPPING parallel-speedup gate: host has %d CPU(s), need >= %d — a 4-worker pool cannot beat serial without hardware parallelism (measured %.2fx)\n",
				rec.CPUs, *requireCPUs, rec.Figure7ParallelSpeedup)
		case rec.Figure7ParallelSpeedup == 0:
			fail(fmt.Errorf("no Figure7Sweep serial+parallel4 samples in %s for the parallel-speedup gate", *newPath))
		default:
			fmt.Printf("benchgate: parallel sweep speedup %.2fx (serial %.0fms / parallel4 %.0fms) on %d CPUs, floor %.2fx\n",
				rec.Figure7ParallelSpeedup, rec.Figure7SweepSerialNs/1e6, rec.Figure7SweepParallel4Ns/1e6, rec.CPUs, *minParallel)
			if rec.Figure7ParallelSpeedup < *minParallel {
				fail(fmt.Errorf("parallel sweep speedup %.2fx < %.2fx floor", rec.Figure7ParallelSpeedup, *minParallel))
			}
		}
	}

	if *minSampled > 0 {
		if rec.SampledSpeedup == 0 {
			fail(fmt.Errorf("no SampledFigure7 exact+sampled samples in %s for the sampled-speedup gate", *newPath))
		}
		fmt.Printf("benchgate: sampled sweep speedup %.2fx (exact %.0fms / sampled %.0fms), floor %.2fx\n",
			rec.SampledSpeedup, rec.SampledFigure7ExactNs/1e6, rec.SampledFigure7Ns/1e6, *minSampled)
		if rec.SampledSpeedup < *minSampled {
			fail(fmt.Errorf("sampled sweep speedup %.2fx < %.2fx floor", rec.SampledSpeedup, *minSampled))
		}
	}
	if *maxSampledErr > 0 {
		if len(p.sampledRelErr) == 0 {
			fail(fmt.Errorf("no SampledFigure7 max-rel-err samples in %s for the sampled-accuracy gate", *newPath))
		}
		fmt.Printf("benchgate: sampled sweep max Throughput rel err %.4f (MPKI %.4f, informational), ceiling %.4f\n",
			rec.SampledMaxRelErr, rec.SampledMaxMPKIRelErr, *maxSampledErr)
		if rec.SampledMaxRelErr > *maxSampledErr {
			fail(fmt.Errorf("sampled sweep rel err %.4f > %.4f ceiling", rec.SampledMaxRelErr, *maxSampledErr))
		}
	}

	if *oldPath != "" {
		old, err := parseBench(*oldPath)
		if err != nil {
			fail(err)
		}
		if len(old.recordsPerSec) == 0 {
			fail(fmt.Errorf("no BenchmarkSimulatorThroughput records/s samples in %s", *oldPath))
		}
		oldBest := best(old.recordsPerSec, true)
		ratio := rec.RecordsPerSec / oldBest
		fmt.Printf("benchgate: %s: %.0f records/s (head) vs %.0f (base, same runner) — ratio %.3f, tolerance %.0f%%\n",
			rec.Benchmark, rec.RecordsPerSec, oldBest, ratio, *tolerance*100)
		if ratio < 1-*tolerance {
			fail(fmt.Errorf("throughput regression: ratio %.3f < %.3f", ratio, 1-*tolerance))
		}
	}

	if *gatePath != "" {
		data, err := os.ReadFile(*gatePath)
		if err != nil {
			fail(err)
		}
		var committed Record
		if err := json.Unmarshal(data, &committed); err != nil {
			fail(err)
		}
		ratio := rec.RecordsPerSec / committed.RecordsPerSec
		fmt.Printf("benchgate: %s: %.0f records/s vs committed %.0f (ratio %.3f, tolerance %.0f%%)\n",
			rec.Benchmark, rec.RecordsPerSec, committed.RecordsPerSec, ratio, *tolerance*100)
		if ratio < 1-*tolerance {
			fail(fmt.Errorf("throughput regression: ratio %.3f < %.3f", ratio, 1-*tolerance))
		}
	}

	if *outPath != "" {
		if *baselineRecords > 0 {
			rec.BaselineRecordsPerSec = *baselineRecords
			rec.SpeedupVsBaseline = rec.RecordsPerSec / *baselineRecords
		}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("benchgate: wrote %s (%.0f records/s", *outPath, rec.RecordsPerSec)
		if rec.SpeedupVsBaseline > 0 {
			fmt.Printf(", %.2fx vs baseline", rec.SpeedupVsBaseline)
		}
		fmt.Println(")")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
