package shift

import (
	"fmt"
	"strings"

	"shift/internal/stats"
)

// CoverageRow is one bar group of Figure 7: instruction misses covered,
// uncovered, and overpredicted by a design, as percentages of the
// baseline (no-prefetch) miss count.
type CoverageRow struct {
	// Workload and Design identify the bar group.
	Workload, Design string
	// Covered/Uncovered/Overpredicted are percentages of the baseline
	// miss count: misses eliminated by a prefetch, misses remaining,
	// and prefetches issued for blocks never demanded.
	Covered, Uncovered, Overpredicted float64
}

// Figure7 reproduces the paper's Figure 7: covered/uncovered/
// overpredicted instruction misses for PIF_2K, PIF_32K, and SHIFT on each
// workload, normalized to the baseline system's misses (the paper's
// averages: rows fig7.* of paperRows).
type Figure7 struct {
	// Rows holds one entry per (workload, design), in Workloads-major
	// order.
	Rows []CoverageRow
	// Workloads is the outer grid axis, in rendering order.
	Workloads []string
	// Designs is the inner grid axis, in rendering order.
	Designs []Design
}

// RunFigure7 regenerates Figure 7 with real prefetching (cache
// perturbation included). The grid — per workload, a baseline for the
// normalization denominator plus the three compared designs — runs on
// the experiment engine.
func RunFigure7(o Options) (*Figure7, error) {
	o, err := o.normalize()
	if err != nil {
		return nil, err
	}
	designs := []Design{DesignPIF2K, DesignPIF32K, DesignSHIFT}
	var cells []Cell
	for _, w := range o.Workloads {
		cells = append(cells, cell(o.config(w, DesignBaseline)))
		for _, d := range designs {
			cells = append(cells, cell(o.config(w, d)))
		}
	}
	results, err := o.engine().RunAll(cells)
	if err != nil {
		return nil, err
	}

	fig := &Figure7{Workloads: displayNames(o.Workloads), Designs: designs}
	stride := 1 + len(designs)
	for wi, w := range o.Workloads {
		bm := float64(results[wi*stride].Misses)
		for di, d := range designs {
			res := results[wi*stride+1+di]
			row := CoverageRow{
				Workload:      WorkloadDisplayName(w),
				Design:        d.String(),
				Uncovered:     float64(res.Misses) / bm * 100,
				Overpredicted: float64(res.Discards) / bm * 100,
			}
			row.Covered = 100 - row.Uncovered
			if row.Covered < 0 {
				row.Covered = 0
			}
			fig.Rows = append(fig.Rows, row)
		}
	}
	return fig, nil
}

// MeanCovered returns the average covered percentage for a design.
func (f *Figure7) MeanCovered(design Design) float64 {
	var vals []float64
	for _, r := range f.Rows {
		if r.Design == design.String() {
			vals = append(vals, r.Covered)
		}
	}
	return stats.Mean(vals)
}

// MeanOverpredicted returns the average overprediction percentage for a
// design.
func (f *Figure7) MeanOverpredicted(design Design) float64 {
	var vals []float64
	for _, r := range f.Rows {
		if r.Design == design.String() {
			vals = append(vals, r.Overpredicted)
		}
	}
	return stats.Mean(vals)
}

// String renders the figure as a table of bar groups.
func (f *Figure7) String() string {
	t := stats.NewTable("Workload", "Design", "Covered (%)", "Uncovered (%)", "Overpredicted (%)")
	for _, r := range f.Rows {
		t.AddRow(r.Workload, r.Design,
			fmt.Sprintf("%.1f", r.Covered),
			fmt.Sprintf("%.1f", r.Uncovered),
			fmt.Sprintf("%.1f", r.Overpredicted))
	}
	var b strings.Builder
	b.WriteString("Figure 7: Instruction misses covered and overpredicted (% of baseline misses)\n")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "Averages: SHIFT %.1f%%+%.1f%%  PIF_32K %.1f%%+%.1f%%  PIF_2K %.1f%%+%.1f%%\n",
		f.MeanCovered(DesignSHIFT), f.MeanOverpredicted(DesignSHIFT),
		f.MeanCovered(DesignPIF32K), f.MeanOverpredicted(DesignPIF32K),
		f.MeanCovered(DesignPIF2K), f.MeanOverpredicted(DesignPIF2K))
	b.WriteString(paperNote("SHIFT %s+%s, PIF_32K %s+%s, PIF_2K %s+%s", "fig7.shift.covered", "fig7.shift.over", "fig7.pif32k.covered", "fig7.pif32k.over", "fig7.pif2k.covered", "fig7.pif2k.over") + "\n")
	return b.String()
}
