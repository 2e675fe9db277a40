package shift

import (
	"fmt"
	"strings"

	"shift/internal/stats"
)

// Figure8 reproduces the paper's Figure 8: speedup of NextLine, PIF_2K,
// PIF_32K, ZeroLat-SHIFT, and SHIFT over the no-prefetch baseline on each
// workload, on the Lean-OoO CMP (the paper's averages: rows fig8.* of
// paperRows).
type Figure8 struct {
	// Speedup[workload][design] is the speedup over baseline.
	Speedup map[string]map[string]float64
	// Geo[design] is the geometric-mean speedup.
	Geo map[string]float64
	// Workloads is the outer grid axis, in rendering order.
	Workloads []string
	// Designs is the inner grid axis, in rendering order.
	Designs []Design
}

// RunFigure8 regenerates Figure 8.
func RunFigure8(o Options) (*Figure8, error) {
	return runSpeedupComparison(o, FigureDesigns())
}

// speedupCells builds the comparison grid: per workload, the baseline
// followed by each compared design. The cell layout is consumed by
// speedupFromResults with stride 1+len(designs).
func speedupCells(o Options, designs []Design) []Cell {
	var cells []Cell
	for _, w := range o.Workloads {
		cells = append(cells, cell(o.config(w, DesignBaseline)))
		for _, d := range designs {
			cells = append(cells, cell(o.config(w, d)))
		}
	}
	return cells
}

// speedupFromResults assembles a Figure8 from a speedupCells grid's
// results (in cell order).
func speedupFromResults(o Options, designs []Design, results []RunResult) *Figure8 {
	fig := &Figure8{
		Speedup:   make(map[string]map[string]float64),
		Geo:       make(map[string]float64),
		Workloads: displayNames(o.Workloads),
		Designs:   designs,
	}
	logs := make(map[string][]float64)
	stride := 1 + len(designs)
	for wi, w := range o.Workloads {
		base := results[wi*stride]
		name := WorkloadDisplayName(w)
		fig.Speedup[name] = make(map[string]float64)
		for di, d := range designs {
			sp := results[wi*stride+1+di].Throughput / base.Throughput
			fig.Speedup[name][d.String()] = sp
			logs[d.String()] = append(logs[d.String()], sp)
		}
	}
	for _, d := range designs {
		fig.Geo[d.String()] = stats.GeoMean(logs[d.String()])
	}
	return fig
}

// runSpeedupComparison runs the Figure 8 comparison for a design set
// (shared with the sensitivity and performance-density studies) on the
// experiment engine.
func runSpeedupComparison(o Options, designs []Design) (*Figure8, error) {
	o, err := o.normalize()
	if err != nil {
		return nil, err
	}
	results, err := o.engine().RunAll(speedupCells(o, designs))
	if err != nil {
		return nil, err
	}
	return speedupFromResults(o, designs, results), nil
}

// SHIFTRetainsPIFBenefit returns SHIFT's geometric-mean speedup benefit
// as a fraction of PIF_32K's (the paper's headline claim).
func (f *Figure8) SHIFTRetainsPIFBenefit() float64 {
	pif := f.Geo[DesignPIF32K.String()] - 1
	sh := f.Geo[DesignSHIFT.String()] - 1
	if pif <= 0 {
		return 0
	}
	return sh / pif
}

// MaxSHIFTSpeedup returns the best per-workload SHIFT speedup.
func (f *Figure8) MaxSHIFTSpeedup() float64 {
	best := 0.0
	for _, w := range f.Workloads {
		if v := f.Speedup[w][DesignSHIFT.String()]; v > best {
			best = v
		}
	}
	return best
}

// String renders the speedup table.
func (f *Figure8) String() string {
	header := []string{"Workload"}
	for _, d := range f.Designs {
		header = append(header, d.String())
	}
	t := stats.NewTable(header...)
	for _, w := range f.Workloads {
		row := []string{w}
		for _, d := range f.Designs {
			row = append(row, fmt.Sprintf("%.3f", f.Speedup[w][d.String()]))
		}
		t.AddRow(row...)
	}
	row := []string{"Geo. Mean"}
	for _, d := range f.Designs {
		row = append(row, fmt.Sprintf("%.3f", f.Geo[d.String()]))
	}
	t.AddRow(row...)
	var b strings.Builder
	b.WriteString("Figure 8: Performance comparison (speedup over no-prefetch baseline)\n")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "SHIFT retains %.0f%% of PIF_32K's benefit %s; max SHIFT speedup %.2fx %s\n",
		f.SHIFTRetainsPIFBenefit()*100, paperNote("%s", "fig8.retained"), f.MaxSHIFTSpeedup(), paperNote("%s", "fig8.max"))
	return b.String()
}
