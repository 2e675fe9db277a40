// Prefetcher comparison: sweep every design point of the paper's Figure 8
// on a chosen workload and print speedups, coverage, and traffic — the
// experiment a prefetcher designer would run first when evaluating SHIFT
// against per-core alternatives.
package main

import (
	"flag"
	"fmt"
	"log"

	"shift"
)

func main() {
	workloadName := flag.String("workload", "Web Frontend", "Table I workload")
	quick := flag.Bool("quick", false, "reduced run length")
	flag.Parse()

	cfg := shift.DefaultRunConfig(*workloadName, shift.DesignBaseline)
	if *quick {
		cfg.WarmupRecords, cfg.MeasureRecords = 20000, 20000
	}
	base, err := shift.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-14s %8s %10s %10s %12s %12s\n",
		"Design", "Speedup", "Covered%", "Discards%", "PrefetchTraf", "HistTraf")
	fmt.Printf("%-14s %8.3f %10s %10s %12d %12s\n", "Baseline", 1.0, "-", "-",
		int64(0), "-")
	for _, d := range shift.FigureDesigns() {
		c := cfg
		c.Design = d
		res, err := shift.Run(c)
		if err != nil {
			log.Fatal(err)
		}
		covered := float64(base.Misses-res.Misses) / float64(base.Misses) * 100
		discards := float64(res.Discards) / float64(base.Misses) * 100
		hist := res.Traffic.HistRead + res.Traffic.HistWrite
		histStr := "-"
		if hist > 0 {
			histStr = fmt.Sprint(hist)
		}
		fmt.Printf("%-14s %8.3f %10.1f %10.1f %12d %12s\n",
			d, res.Throughput/base.Throughput, covered, discards,
			res.Traffic.PrefetchFill, histStr)
	}
	fmt.Println("\n(FIDELITY.md sets the full-scale reproduction against the paper's values)")
}
