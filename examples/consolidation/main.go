// Consolidation: run four different server workloads side by side on one
// 16-core CMP (four cores each), with one LLC-embedded shared history per
// workload — the Section 4.3 / Figure 10 scenario. Demonstrates that
// SHIFT's benefit survives multi-tenancy because each workload gets its
// own history generator core and HBBase.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"shift"
)

func main() {
	if err := run(os.Stdout, shift.DefaultOptions()); err != nil {
		log.Fatal(err)
	}
}

// run regenerates Figure 10 at o's scale and prints it to w, followed
// by SHIFT against ZeroLat-SHIFT for each consolidated workload.
func run(w io.Writer, o shift.Options) error {
	fig, err := shift.RunFigure10(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, fig)

	fmt.Fprintln(w, "Per-workload detail (SHIFT vs dedicated-storage ZeroLat-SHIFT):")
	for _, wl := range fig.Workloads {
		sh := fig.Speedup[wl][shift.DesignSHIFT.String()]
		zl := fig.Speedup[wl][shift.DesignZeroLatSHIFT.String()]
		fmt.Fprintf(w, "  %-16s SHIFT %.3fx  ZeroLat %.3fx  (virtualization cost %.1f%%)\n",
			wl, sh, zl, (zl/sh-1)*100)
	}
	return nil
}
