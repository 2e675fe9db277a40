// Quickstart: run the no-prefetch baseline and SHIFT on one server
// workload and print the headline numbers (miss rate, fetch-stall
// fraction, miss coverage, speedup) — the smallest useful use of the
// public API.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"shift"
)

func main() {
	if err := run(os.Stdout, shift.DefaultRunConfig("OLTP Oracle", shift.DesignBaseline)); err != nil {
		log.Fatal(err)
	}
}

// run simulates cfg without prefetching and with SHIFT (cfg.Design is
// ignored) and prints the headline numbers of both to w.
func run(w io.Writer, cfg shift.Config) error {
	cfg.Design = shift.DesignBaseline
	base, err := shift.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s on %d %s cores (no prefetching):\n", cfg.Workload, cfg.Cores, cfg.CoreType)
	fmt.Fprintf(w, "  L1-I MPKI:            %.1f\n", base.MPKI)
	fmt.Fprintf(w, "  fetch-stall fraction: %.0f%% of cycles\n", base.FetchStallFraction*100)
	fmt.Fprintf(w, "  throughput:           %.2f aggregate IPC\n\n", base.Throughput)

	cfg.Design = shift.DesignSHIFT
	res, err := shift.Run(cfg)
	if err != nil {
		return err
	}
	covered := float64(base.Misses-res.Misses) / float64(base.Misses) * 100
	fmt.Fprintf(w, "with SHIFT (shared history embedded in the LLC):\n")
	fmt.Fprintf(w, "  misses eliminated:    %.0f%%\n", covered)
	fmt.Fprintf(w, "  history records:      %d written by the generator core\n", res.HistRecordsWritten)
	fmt.Fprintf(w, "  LLC history traffic:  %d reads, %d writes\n",
		res.Traffic.HistRead, res.Traffic.HistWrite)
	fmt.Fprintf(w, "  speedup:              %.2fx\n", res.Throughput/base.Throughput)
	return nil
}
