package shift

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// The benchmarks below regenerate every figure and table of the paper's
// evaluation at a reduced-but-meaningful scale (QuickOptions with two
// representative workloads where the full suite is not required), and
// report the headline metric of each figure via b.ReportMetric. Run the
// full-scale versions with cmd/shiftsim.

// benchOptions is the common reduced scale.
func benchOptions() Options {
	o := QuickOptions()
	o.Workloads = []string{"OLTP Oracle", "Web Search"}
	return o
}

// BenchmarkFigure1 regenerates the speedup-vs-miss-elimination study
// (paper: linear trend, 31% geo-mean speedup at 100%).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := RunFigure1(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.PerfectGeoMean(), "perfect-speedup")
	}
}

// BenchmarkFigure2 regenerates the PIF performance-density scatter
// (paper: PD gain on Fat-OoO, PD loss on Lean-IO).
func BenchmarkFigure2(b *testing.B) {
	o := benchOptions()
	o.Workloads = []string{"Web Search"}
	for i := 0; i < b.N; i++ {
		pd, err := RunPerfDensity(o)
		if err != nil {
			b.Fatal(err)
		}
		if p := pd.Point(LeanIO, DesignPIF32K); p != nil {
			b.ReportMetric(p.PD, "pif-leanio-pd")
		}
	}
}

// BenchmarkFigure3 regenerates the cross-core stream commonality study
// (paper: >90%, up to 96%).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := RunFigure3(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Mean(), "commonality-%")
	}
}

// BenchmarkFigure6 regenerates the coverage-vs-history-size curves
// (paper: SHIFT strictly above PIF; knee at 32K records).
func BenchmarkFigure6(b *testing.B) {
	sizes := []int{2048, 8192, 32768, 131072}
	for i := 0; i < b.N; i++ {
		fig, err := RunFigure6(benchOptions(), sizes)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.SHIFT[2], "shift-cov-32K-%")
		b.ReportMetric(fig.PIF[2], "pif-cov-32K-%")
	}
}

// BenchmarkFigure7 regenerates covered/uncovered/overpredicted misses
// (paper averages: SHIFT 81%, PIF_32K 92%, PIF_2K 53%).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := RunFigure7(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.MeanCovered(DesignSHIFT), "shift-covered-%")
		b.ReportMetric(fig.MeanCovered(DesignPIF32K), "pif32k-covered-%")
		b.ReportMetric(fig.MeanCovered(DesignPIF2K), "pif2k-covered-%")
	}
}

// oneAtATime is the Executor that spends none of what a batch shares: it
// runs the members of every batch one Run after the other.
type oneAtATime struct{}

func (oneAtATime) ExecBatch(cfgs []Config) ([]RunResult, error) {
	out := make([]RunResult, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if out[i], err = Run(cfg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// BenchmarkFigure7Sweep measures the Figure 7 grid on the experiment
// engine in three configurations: the serial schedule (all designs of a
// workload simulated in one pass off a shared stream), the same grid with
// its cells run one Run at a time (what the sweep cost before batching,
// kept for comparison — a test-side Executor, the engine has no switch
// for it), and a 4-worker pool. The engine merges results by cell and
// batching shares only design-independent work, so all three produce
// identical numeric output (asserted against the first run). Serial vs
// unbatched is the batched speedup and serial vs parallel4 the parallel
// speedup (the latter needs >= 4 CPUs to mean anything — the grid holds
// one batch per workload); the repository benchmark's ledger records
// them as sim.batch_speedup and engine.parallel_speedup.
// Compare with: go test -bench BenchmarkFigure7Sweep -benchtime 3x
func BenchmarkFigure7Sweep(b *testing.B) {
	reference, err := RunFigure7(benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		par  int
		exec Executor
	}{
		{"serial", 1, nil},
		{"unbatched", 1, oneAtATime{}},
		{"parallel4", 4, nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			o := benchOptions()
			for i := 0; i < b.N; i++ {
				o.Engine = NewEngine(bc.par, nil)
				o.Engine.SetExecutor(bc.exec)
				fig, err := RunFigure7(o)
				if err != nil {
					b.Fatal(err)
				}
				if !reflect.DeepEqual(fig, reference) {
					b.Fatalf("case %s changed the numeric output", bc.name)
				}
			}
			b.ReportMetric(reference.MeanCovered(DesignSHIFT), "shift-covered-%")
		})
	}
}

// BenchmarkSampledFigure7 measures the sampled execution mode against
// exact simulation on the Figure 7 grid at a long measurement window
// (25k warmup + 100k measured records per core, where sampling pays:
// the policy simulates 1 interval in 40 in detail and fast-forwards
// the rest with functional warming). Both cases run the engine's
// default batched serial schedule, so the ratio isolates what sampling
// buys. The sampled case also reports its accuracy against the exact
// reference results: max-rel-err is the worst relative Throughput
// (IPC-class) deviation across the grid's cells, and max-mpki-rel-err
// the worst MPKI deviation (informational — the effective-miss process
// is bursty at interval granularity, which is why sampled results
// carry confidence intervals; see ARCHITECTURE.md). The repository
// benchmark's ledger records the ratio as sim.sampled_speedup, and
// TestSampledAccuracy asserts the 2% Throughput bound.
func BenchmarkSampledFigure7(b *testing.B) {
	exactOpts := QuickOptions()
	exactOpts.Workloads = []string{"OLTP Oracle", "Web Search"}
	exactOpts.MeasureRecords = 100000
	sampledOpts := exactOpts
	sampledOpts.Sampling = Sampling{Period: 40, IntervalRecords: 500, WarmupFraction: 0.3}

	grid := func(o Options) []Cell {
		var cells []Cell
		for _, w := range o.Workloads {
			for _, d := range []Design{DesignBaseline, DesignPIF2K, DesignPIF32K, DesignSHIFT} {
				cells = append(cells, Cell{Label: w + "/" + d.String(), Config: o.config(w, d)})
			}
		}
		return cells
	}
	run := func(b *testing.B, o Options) []RunResult {
		rs, err := NewEngine(1, nil).RunAll(grid(o))
		if err != nil {
			b.Fatal(err)
		}
		return rs
	}

	var reference []RunResult
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reference = run(b, exactOpts)
		}
	})
	b.Run("sampled", func(b *testing.B) {
		if reference == nil {
			// The exact case was filtered out; compute the (identical
			// on every run) reference without timing it.
			b.StopTimer()
			reference = run(b, exactOpts)
			b.StartTimer()
		}
		var maxTput, maxMPKI float64
		for i := 0; i < b.N; i++ {
			rs := run(b, sampledOpts)
			maxTput, maxMPKI = 0, 0
			for j := range rs {
				if r := relErr(rs[j].Throughput, reference[j].Throughput); r > maxTput {
					maxTput = r
				}
				if r := relErr(rs[j].MPKI, reference[j].MPKI); r > maxMPKI {
					maxMPKI = r
				}
			}
		}
		b.ReportMetric(maxTput, "max-rel-err")
		b.ReportMetric(maxMPKI, "max-mpki-rel-err")
	})
}

// relErr returns |got-want|/|want| (0 when want is 0).
func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	r := (got - want) / want
	if r < 0 {
		r = -r
	}
	return r
}

// BenchmarkFigure8 regenerates the headline performance comparison
// (paper: SHIFT 19% mean speedup, >90% of PIF_32K's benefit).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := RunFigure8(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Geo[DesignSHIFT.String()], "shift-speedup")
		b.ReportMetric(fig.SHIFTRetainsPIFBenefit(), "benefit-vs-pif")
	}
}

// BenchmarkFigure9 regenerates the LLC traffic overhead study
// (paper: ~6% log + ~7% discard traffic on average).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := RunFigure9(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.MeanLogTraffic(), "log-traffic-%")
		b.ReportMetric(fig.MeanDiscard(), "discard-traffic-%")
	}
}

// BenchmarkFigure10 regenerates the workload-consolidation study
// (paper: SHIFT at 95% of PIF_32K's absolute performance).
func BenchmarkFigure10(b *testing.B) {
	o := QuickOptions()
	for i := 0; i < b.N; i++ {
		fig, err := RunFigure10(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Geo[DesignSHIFT.String()], "shift-speedup")
		b.ReportMetric(fig.SHIFTvsPIF32KAbsolute(), "vs-pif32k")
	}
}

// BenchmarkPerfDensity regenerates the Section 5.6 PD table
// (paper: SHIFT beats PIF_32K's PD by 2%/16%/59% across core types).
func BenchmarkPerfDensity(b *testing.B) {
	o := benchOptions()
	o.Workloads = []string{"Web Search"}
	for i := 0; i < b.N; i++ {
		pd, err := RunPerfDensity(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pd.SHIFTPDGain(LeanIO), "pd-gain-leanio")
	}
}

// BenchmarkPower regenerates the Section 5.7 power estimate
// (paper: <150mW for the 16-core CMP).
func BenchmarkPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := RunPowerStudy(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(p.MaxMW, "max-mW")
	}
}

// BenchmarkStorage regenerates the Section 5.1 storage table (analytic).
func BenchmarkStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := RunStorageReport()
		b.ReportMetric(r.AreaRatio, "pif/shift-area-ratio")
	}
}

// BenchmarkSensitivityRegionSpan ablates the spatial region size
// (paper Section 4.1: 8 is the tuned value).
func BenchmarkSensitivityRegionSpan(b *testing.B) {
	benchSensitivity(b, "region span")
}

// BenchmarkSensitivityLookahead ablates the stream lookahead
// (paper Section 4.1: 5 is the tuned value).
func BenchmarkSensitivityLookahead(b *testing.B) {
	benchSensitivity(b, "lookahead")
}

// BenchmarkSensitivitySABCapacity ablates the stream buffer capacity
// (paper Section 4.1: 12 is the tuned value).
func BenchmarkSensitivitySABCapacity(b *testing.B) {
	benchSensitivity(b, "SAB capacity")
}

// BenchmarkSensitivityStreams ablates the number of stream buffers
// (paper Section 4.1: 4 streams).
func BenchmarkSensitivityStreams(b *testing.B) {
	benchSensitivity(b, "streams")
}

func benchSensitivity(b *testing.B, param string) {
	o := benchOptions()
	o.Workloads = []string{"Web Search"}
	for i := 0; i < b.N; i++ {
		s, err := RunSensitivity(o)
		if err != nil {
			b.Fatal(err)
		}
		v, sp := s.Best(param)
		b.ReportMetric(float64(v), "best-value")
		b.ReportMetric(sp, "best-speedup")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (records simulated per second on the 16-core Table I system).
//
// It also reports allocs/record, the hot-path allocation gate: a run
// allocates only during construction and warmup growth (workload build,
// system setup, buffer sizing), so amortized over the ~400k simulated
// records the figure must stay well under the one-alloc-per-record
// level the steady-state test (internal/sim TestStepZeroAllocSteadyState*)
// pins to exactly zero. Regressions that reintroduce per-record churn
// show up here as a jump of 1.0 or more.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := DefaultRunConfig("Web Search", DesignSHIFT)
	cfg.WarmupRecords = 5000
	cfg.MeasureRecords = 20000
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	var total, simulated int64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Records
		simulated += (cfg.WarmupRecords + cfg.MeasureRecords) * int64(cfg.Cores)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "records/s")
	if simulated > 0 {
		b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(simulated), "allocs/record")
	}
}

// BenchmarkBatchMembers is the in-repo twin of the benchmark ledger's
// sim.batch_speedup: the six designs of a paper grid (Figures 7-9) over
// one 16-core workload, as one RunBatch (the timed, allocation-counted
// part) and, alternating with it, as six standalone Runs. Both are
// reported in ns per record-step per member, with their ratio: what a
// follower saves by replaying the lead's log instead of decoding,
// predicting and probing for itself.
func BenchmarkBatchMembers(b *testing.B) {
	designs := []Design{DesignBaseline, DesignNextLine, DesignPIF2K, DesignPIF32K, DesignZeroLatSHIFT, DesignSHIFT}
	cfgs := make([]Config, len(designs))
	for i, d := range designs {
		cfgs[i] = DefaultRunConfig("OLTP Oracle", d)
		cfgs[i].WarmupRecords, cfgs[i].MeasureRecords = 10000, 10000
	}
	steps := float64(len(cfgs)) * float64(cfgs[0].Cores) * float64(cfgs[0].WarmupRecords+cfgs[0].MeasureRecords)
	b.ReportAllocs()
	var perCell time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		start := time.Now()
		for _, c := range cfgs {
			if _, err := Run(c); err != nil {
				b.Fatal(err)
			}
		}
		perCell += time.Since(start)
		b.StartTimer()
		if _, err := RunBatch(cfgs); err != nil {
			b.Fatal(err)
		}
	}
	batch := b.Elapsed()
	b.ReportMetric(float64(perCell.Nanoseconds())/(float64(b.N)*steps), "percell-ns/member-step")
	b.ReportMetric(float64(batch.Nanoseconds())/(float64(b.N)*steps), "batch-ns/member-step")
	b.ReportMetric(float64(perCell)/float64(batch), "x-vs-percell")
}

// Example of regenerating a figure programmatically; also exercises the
// String renderers under `go test`.
func ExampleRunStorageReport() {
	r := RunStorageReport()
	fmt.Println(r.SHIFTHistoryLines)
	// Output: 2731
}

// BenchmarkGeneratorChoice regenerates the Section 6.1 study
// (paper: no sensitivity to which core records the shared history).
func BenchmarkGeneratorChoice(b *testing.B) {
	o := benchOptions()
	o.Workloads = []string{"Web Search"}
	for i := 0; i < b.N; i++ {
		g, err := RunGeneratorStudy(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(g.Spread*100, "speedup-spread-%")
	}
}

// cellFixedConfig is the 1 + 1-record cell whose cost is everything but
// stepping: System construction, stream set-up and result assembly.
func cellFixedConfig(d Design, cores int) Config {
	cfg := DefaultRunConfig("OLTP Oracle", d)
	cfg.Cores, cfg.WarmupRecords, cfg.MeasureRecords = cores, 1, 1
	return cfg
}

// BenchmarkCellFixed reports the per-cell fixed cost (time and bytes) the
// service's many-small-cell sweeps pay before their first record.
func BenchmarkCellFixed(b *testing.B) {
	for _, d := range []Design{DesignBaseline, DesignPIF32K, DesignSHIFT} {
		for _, cores := range []int{4, 16} {
			cfg := cellFixedConfig(d, cores)
			b.Run(fmt.Sprintf("%s/%dcores", d, cores), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Run(cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
