package shift

import (
	"fmt"
	"strings"

	"shift/internal/stats"
)

// Figure6 reproduces the paper's Figure 6: percentage of instruction
// misses correctly predicted as a function of *aggregate* history size,
// for SHIFT (one shared history of the given size) versus PIF (the
// aggregate split evenly across the cores' private histories). The study
// uses prediction-only simulation (no cache perturbation) and averages
// coverage across workloads. The paper shows SHIFT above PIF at every
// size, with diminishing returns past 32K records.
type Figure6 struct {
	// Sizes are aggregate history capacities in spatial region records.
	Sizes []int
	// SHIFT[i] and PIF[i] are mean miss-coverage percentages at Sizes[i].
	SHIFT, PIF []float64
	// Workloads are the workloads averaged into each point.
	Workloads []string
}

// DefaultFigure6Sizes mirrors the paper's x-axis (1K..512K). RunFigure6
// runs every size on the options' window, warmup unscaled, so the largest
// points never fill: one generator core writes the shared history, and at
// the default 60,000 + 60,000 records SHIFT reads the same coverage from
// 64K records up, while PIF's per-core histories, which every core
// writes, keep growing.
func DefaultFigure6Sizes() []int {
	return []int{1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288}
}

// RunFigure6 regenerates Figure 6 over the given aggregate sizes
// (DefaultFigure6Sizes if nil).
func RunFigure6(o Options, sizes []int) (*Figure6, error) {
	o, err := o.normalize()
	if err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		sizes = DefaultFigure6Sizes()
	}
	// Grid: per (aggregate size, workload), a SHIFT cell with the full
	// aggregate capacity and a PIF cell with the aggregate divided
	// across private per-core histories. Every cell is checked before
	// any runs, so a size out of range costs no simulation.
	var cells []Cell
	for _, aggregate := range sizes {
		perCore := max(aggregate/o.Cores, 16)
		for _, w := range o.Workloads {
			shared, perCorePIF := o.config(w, DesignZeroLatSHIFT), o.config(w, DesignPIF32K)
			shared.HistEntries, perCorePIF.HistEntries = aggregate, perCore
			for _, cfg := range []Config{shared, perCorePIF} {
				cfg.PredictionOnly = true
				if err := cfg.Validate(); err != nil {
					return nil, fmt.Errorf("shift: Figure 6 size %d: %w", aggregate, err)
				}
				cells = append(cells, cell(cfg, "agg="+fmtSize(aggregate)))
			}
		}
	}
	results, err := o.engine().RunAll(cells)
	if err != nil {
		return nil, err
	}

	fig := &Figure6{Sizes: sizes, Workloads: displayNames(o.Workloads)}
	i := 0
	for range sizes {
		var shiftCov, pifCov []float64
		for range o.Workloads {
			shiftCov = append(shiftCov, results[i].MissCoverage*100)
			pifCov = append(pifCov, results[i+1].MissCoverage*100)
			i += 2
		}
		fig.SHIFT = append(fig.SHIFT, stats.Mean(shiftCov))
		fig.PIF = append(fig.PIF, stats.Mean(pifCov))
	}
	return fig, nil
}

// SHIFTAlwaysAbovePIF reports whether SHIFT's curve dominates PIF's, the
// paper's qualitative claim.
func (f *Figure6) SHIFTAlwaysAbovePIF() bool {
	for i := range f.Sizes {
		if f.SHIFT[i] < f.PIF[i] {
			return false
		}
	}
	return true
}

// String renders the two coverage curves.
func (f *Figure6) String() string {
	t := stats.NewTable("Aggregate history (records)", "SHIFT coverage (%)", "PIF coverage (%)")
	for i, s := range f.Sizes {
		t.AddRow(fmtSize(s), fmt.Sprintf("%.1f", f.SHIFT[i]), fmt.Sprintf("%.1f", f.PIF[i]))
	}
	var b strings.Builder
	b.WriteString("Figure 6: Percentage of instruction misses predicted vs aggregate history size\n")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "SHIFT above PIF at every size: %v %s\n", f.SHIFTAlwaysAbovePIF(), paperNote("%s", "fig6.dominance"))
	return b.String()
}

func fmtSize(n int) string {
	if n >= 1024 && n%1024 == 0 {
		return fmt.Sprintf("%dK", n/1024)
	}
	return fmt.Sprintf("%d", n)
}
