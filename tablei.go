package shift

import (
	"fmt"
	"strings"

	"shift/internal/cpu"
	"shift/internal/sim"
	"shift/internal/stats"
	"shift/internal/workload"
)

// TableI renders the reproduced system and application parameters
// (the paper's Table I), as configured in this package's defaults.
func TableI() string {
	var b strings.Builder
	sc := sim.DefaultConfig()

	sys := stats.NewTable("Component", "Configuration")
	sys.AddRow("Processing nodes", fmt.Sprintf("%d cores, 2GHz, 4x4 mesh (%d cycles/hop)",
		sc.Cores, sc.Mesh.HopCycles))
	for _, ct := range AllCoreTypes() {
		p := cpu.ParamsFor(ct)
		desc := fmt.Sprintf("%d-wide", p.Width)
		if p.ROB > 0 {
			desc += fmt.Sprintf(", %d-entry ROB, %d-entry LSQ", p.ROB, p.LSQ)
		} else {
			desc += ", in-order"
		}
		sys.AddRow(fmt.Sprintf("  %s (%.1f mm^2)", ct, p.AreaMM2), desc)
	}
	sys.AddRow("I-fetch unit", fmt.Sprintf("%dKB %d-way L1-I, 64B blocks; hybrid bpred (16K gShare + 16K bimodal)",
		sc.L1I.SizeBytes/1024, sc.L1I.Assoc))
	sys.AddRow("L2 NUCA cache", fmt.Sprintf("%dKB/core, %d-way, %d banks, %d-cycle hit, 64 MSHRs",
		sc.LLCBankBytes/1024, sc.LLCAssoc, sc.Mesh.Tiles(), sim.L2HitCycles))
	sys.AddRow("Main memory", fmt.Sprintf("%d-cycle access (%gns @ 2GHz)", sim.MemCycles, float64(sim.MemCycles)/2))
	b.WriteString("Table I (system): reproduced configuration\n")
	b.WriteString(sys.String())

	apps := stats.NewTable("Workload", "Instr. footprint", "Request types", "OS traps/sched")
	for _, p := range workload.Catalog() {
		apps.AddRow(p.Name,
			fmt.Sprintf("%.1f MB", float64(p.FootprintBytes)/(1024*1024)),
			fmt.Sprintf("%d", p.RequestTypes),
			fmt.Sprintf("%.2f%% / %.0f%%", p.TrapRate*100, p.SchedProb*100))
	}
	b.WriteString("\nTable I (applications): synthetic workload models\n")
	b.WriteString(apps.String())
	return b.String()
}
