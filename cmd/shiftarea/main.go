// Command shiftarea prints the analytical storage and area budgets behind
// the paper's cost arguments (Sections 4.2, 5.1, 5.6, 6.2) without
// running any simulation. Measured performance density is `shiftsim
// -experiment pd`; FIDELITY.md sets both against the paper's values.
//
// Usage:
//
//	shiftarea                 # storage/area report
//	shiftarea -virtpif        # Section 6.2 virtualized-PIF cost only
//	shiftarea -virtpif -cores 64
package main

import (
	"flag"
	"fmt"

	"shift"
	"shift/internal/area"
)

func main() {
	var (
		cores   = flag.Int("cores", 16, "cores for the virtualized-PIF cost")
		virtpif = flag.Bool("virtpif", false, "print only the Section 6.2 virtualized per-core PIF cost")
	)
	flag.Parse()

	r := shift.RunStorageReport()
	if *virtpif {
		b := area.VirtualizedPIFLLCBytes(32768, *cores)
		fmt.Printf("Virtualized per-core PIF (32K records, %d cores): %.2f MB of LLC capacity\n",
			*cores, float64(b)/(1024*1024))
		fmt.Printf("(grows linearly with cores; SHIFT's shared history stays at %.0fKB)\n", r.SHIFTHistoryKB)
		return
	}
	fmt.Println(r)
}
