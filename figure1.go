package shift

import (
	"fmt"
	"strings"

	"shift/internal/stats"
)

// Figure1 reproduces the paper's Figure 1: speedup as a function of the
// fraction of instruction cache misses eliminated, per workload, with the
// geometric mean. Each miss is probabilistically converted into a hit
// without exposing its latency (the paper's methodology); 100% equals a
// perfect instruction cache. The paper reports a linear trend; its value
// at 100% is row fig1.perfect of paperRows (fidelity.go).
type Figure1 struct {
	// Fractions are the x-axis points in percent (0..100).
	Fractions []int
	// Speedup[workload][i] is the speedup at Fractions[i].
	Speedup map[string][]float64
	// GeoMean[i] is the geometric mean across workloads at Fractions[i].
	GeoMean []float64
	// Workloads preserves row order.
	Workloads []string
}

// RunFigure1 regenerates Figure 1.
func RunFigure1(o Options) (*Figure1, error) {
	o, err := o.normalize()
	if err != nil {
		return nil, err
	}
	fig := &Figure1{
		Fractions: []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
		Speedup:   make(map[string][]float64),
		Workloads: displayNames(o.Workloads),
	}
	// Grid: per workload, the baseline followed by one cell per nonzero
	// elimination fraction.
	var cells []Cell
	for _, w := range o.Workloads {
		cells = append(cells, cell(o.config(w, DesignBaseline)))
		for _, f := range fig.Fractions {
			if f == 0 {
				continue
			}
			cfg := o.config(w, DesignBaseline)
			cfg.ElimProb = float64(f) / 100
			cells = append(cells, cell(cfg, fmt.Sprintf("elim=%d%%", f)))
		}
	}
	results, err := o.engine().RunAll(cells)
	if err != nil {
		return nil, err
	}
	stride := len(fig.Fractions) // 1 baseline + (len-1) nonzero points
	for wi, w := range o.Workloads {
		base := results[wi*stride]
		row := make([]float64, len(fig.Fractions))
		next := wi*stride + 1
		for i, f := range fig.Fractions {
			if f == 0 {
				row[i] = 1.0
				continue
			}
			row[i] = results[next].Throughput / base.Throughput
			next++
		}
		fig.Speedup[WorkloadDisplayName(w)] = row
	}
	fig.GeoMean = make([]float64, len(fig.Fractions))
	for i := range fig.Fractions {
		col := make([]float64, 0, len(o.Workloads))
		for _, w := range o.Workloads {
			col = append(col, fig.Speedup[WorkloadDisplayName(w)][i])
		}
		fig.GeoMean[i] = stats.GeoMean(col)
	}
	return fig, nil
}

// PerfectGeoMean returns the geometric-mean speedup at 100% elimination
// (the paper's headline).
func (f *Figure1) PerfectGeoMean() float64 {
	if len(f.GeoMean) == 0 {
		return 0
	}
	return f.GeoMean[len(f.GeoMean)-1]
}

// String renders the figure as a table of speedup series.
func (f *Figure1) String() string {
	header := []string{"Workload \\ %misses eliminated"}
	for _, p := range f.Fractions {
		header = append(header, fmt.Sprintf("%d%%", p))
	}
	t := stats.NewTable(header...)
	for _, w := range f.Workloads {
		row := []string{w}
		for _, v := range f.Speedup[w] {
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		t.AddRow(row...)
	}
	row := []string{"Geo. Mean"}
	for _, v := range f.GeoMean {
		row = append(row, fmt.Sprintf("%.3f", v))
	}
	t.AddRow(row...)
	var b strings.Builder
	b.WriteString("Figure 1: Speedup vs fraction of I-cache misses eliminated\n")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "Perfect-I geo-mean speedup: %.3f %s\n", f.PerfectGeoMean(), paperNote("%s", "fig1.perfect"))
	return b.String()
}
