package shift

import (
	"fmt"
	"strings"

	"shift/internal/stats"
)

// Figure3 reproduces the paper's Figure 3: the fraction of all
// instruction-cache accesses (application + OS) that fall within temporal
// streams recorded by a single history generator core and replayed by the
// other cores, on average across 16 cores (the paper's values: rows
// fig3.* of paperRows).
type Figure3 struct {
	// Commonality[workload] is the percentage of accesses inside common
	// temporal streams.
	Commonality map[string]float64
	// Workloads is the bar axis, in rendering order.
	Workloads []string
}

// RunFigure3 regenerates Figure 3 using prediction-only simulation with
// replay allocation on every access (the Section 3 methodology).
func RunFigure3(o Options) (*Figure3, error) {
	o, err := o.normalize()
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, len(o.Workloads))
	for i, w := range o.Workloads {
		cfg := o.config(w, DesignZeroLatSHIFT)
		cfg.PredictionOnly = true
		cfg.CommonalityMode = true
		cells[i] = cell(cfg, "commonality")
	}
	results, err := o.engine().RunAll(cells)
	if err != nil {
		return nil, err
	}
	fig := &Figure3{Commonality: make(map[string]float64), Workloads: displayNames(o.Workloads)}
	for i, w := range o.Workloads {
		fig.Commonality[WorkloadDisplayName(w)] = results[i].AccessCoverage * 100
	}
	return fig, nil
}

// Mean returns the mean commonality percentage.
func (f *Figure3) Mean() float64 {
	vals := make([]float64, 0, len(f.Workloads))
	for _, w := range f.Workloads {
		vals = append(vals, f.Commonality[w])
	}
	return stats.Mean(vals)
}

// String renders the figure as a bar table.
func (f *Figure3) String() string {
	t := stats.NewTable("Workload", "Common stream accesses (%)", "")
	for _, w := range f.Workloads {
		v := f.Commonality[w]
		t.AddRow(w, fmt.Sprintf("%.1f", v), stats.Bar(v))
	}
	var b strings.Builder
	b.WriteString("Figure 3: Instruction cache accesses within common temporal streams\n")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "Mean: %.1f%% %s\n", f.Mean(), paperNote("%s, %s", "fig3.mean", "fig3.max"))
	return b.String()
}
