// Custom workload: build a synthetic server workload from scratch with
// the internal workload model, inspect its trace properties, and measure
// how SHIFT's coverage responds as the instruction footprint grows — the
// workflow for studying a workload that is not in the Table I catalog.
//
// (Examples live inside the module, so they may import internal packages;
// external users would instead start from the shift.Workloads() catalog.)
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"shift/internal/core"
	"shift/internal/sim"
	"shift/internal/trace"
	"shift/internal/workload"
)

func main() {
	if err := run(os.Stdout, 40000); err != nil {
		log.Fatal(err)
	}
}

// run sweeps the instruction footprint of one synthetic workload and
// prints, per footprint, its trace statistics and the baseline's and
// SHIFT's results over records warmup and records measured per core.
func run(w io.Writer, records int64) error {
	for _, footprintKB := range []int{256, 768, 1536, 3072} {
		p := workload.Params{
			Name: fmt.Sprintf("custom-%dKB", footprintKB), Seed: 42,
			FootprintBytes:   footprintKB * 1024,
			OSFootprintBytes: 64 * 1024,
			RequestTypes:     8, RequestZipf: 0.5,
			FuncBlocksMean: 5, CallDepth: 7, CallSiteDensity: 0.3,
			VaryProb: 0.04, SkipProb: 0.24, CoreBias: 0.04,
			TrapRate: 0.003, SchedProb: 0.25,
			LoopWeight: 0.4,
		}
		wl, err := workload.New(p)
		if err != nil {
			return err
		}
		st, err := trace.Measure(trace.Limit(wl.NewCoreReader(0), 150000))
		if err != nil {
			return err
		}

		var res [2]sim.Result
		for i, pf := range []sim.PrefetcherSpec{
			{Kind: sim.KindNone},
			{Kind: sim.KindHistory, History: core.DefaultConfig()},
		} {
			cfg := sim.DefaultConfig()
			cfg.Prefetcher = pf
			if res[i], err = sim.Run(sim.RunSpec{
				Config: cfg, Workload: p,
				WarmupRecords: records, MeasureRecords: records,
			}); err != nil {
				return err
			}
		}
		base, sh := res[0], res[1]

		covered := float64(base.Fetch.Misses-sh.Fetch.Misses) / float64(base.Fetch.Misses) * 100
		fmt.Fprintf(w, "footprint %4dKB: touched %4.0fKB, seq %4.1f%%, baseline MPKI %5.1f, "+
			"SHIFT covers %5.1f%% -> speedup %.3fx\n",
			footprintKB, float64(st.FootprintBytes())/1024, st.SeqFraction()*100,
			base.MPKI, covered, sh.Throughput/base.Throughput)
	}
	fmt.Fprintln(w, "\nLarger instruction working sets miss more and gain more from SHIFT —")
	fmt.Fprintln(w, "the paper's motivation for targeting server software stacks.")
	return nil
}
