package shift

import (
	"fmt"
	"strings"

	"shift/internal/core"
	"shift/internal/exp"
	"shift/internal/sim"
	"shift/internal/stats"
	"shift/internal/workload"
)

// ConsolidationWorkloads returns the four workloads the paper
// consolidates in Figure 10: two traditional (OLTP on Oracle, web
// frontend) and two emerging (media streaming, web search), four cores
// each.
func ConsolidationWorkloads() []string {
	return []string{"OLTP Oracle", "Web Frontend", "Media Streaming", "Web Search"}
}

// Figure10 reproduces the paper's Figure 10: speedups under workload
// consolidation, with one shared history (and one generator core) per
// workload for SHIFT. The paper reports SHIFT at 22% mean speedup (95%
// of PIF_32K's absolute performance), ZeroLat at 25%.
type Figure10 struct {
	// Speedup[workload][design] is the per-workload-group speedup
	// (throughput of that group's cores over the baseline run).
	Speedup map[string]map[string]float64
	// Geo[design] is the geometric mean across groups.
	Geo map[string]float64
	// Workloads is the outer grid axis, in rendering order.
	Workloads []string
	// Designs is the inner grid axis, in rendering order.
	Designs []Design
}

// RunFigure10 regenerates Figure 10. Cores are split evenly across the
// four consolidated workloads.
func RunFigure10(o Options) (*Figure10, error) {
	o, err := o.normalize()
	if err != nil {
		return nil, err
	}
	names := ConsolidationWorkloads()
	per := o.Cores / len(names)
	if per < 1 {
		return nil, fmt.Errorf("shift: %d cores cannot host %d consolidated workloads", o.Cores, len(names))
	}
	groups := make([]core.Group, len(names))
	groupWl := make([]workload.Params, len(names))
	for i, n := range names {
		cores := make([]int, per)
		for j := range cores {
			cores[j] = i*per + j
		}
		groups[i] = core.Group{Name: n, Cores: cores}
		wp, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		groupWl[i] = wp
	}

	designs := FigureDesigns()
	fig := &Figure10{
		Speedup:   make(map[string]map[string]float64),
		Geo:       make(map[string]float64),
		Workloads: names,
		Designs:   designs,
	}
	for _, n := range names {
		fig.Speedup[n] = make(map[string]float64)
	}

	run := func(d Design) (map[string]float64, error) {
		rs, err := o.runSpec(d)
		if err != nil {
			return nil, err
		}
		rs.Groups, rs.GroupWorkloads = groups, groupWl
		res, err := sim.Run(rs)
		if err != nil {
			return nil, err
		}
		// Per-group throughput: sum of that group's cores' IPC.
		out := make(map[string]float64, len(groups))
		for gi, g := range groups {
			var thr float64
			for _, c := range g.Cores {
				thr += res.PerCore[c].IPC
			}
			out[names[gi]] = thr
		}
		return out, nil
	}

	// Consolidated runs are not expressible as a public Config (they
	// carry core groups), so they use the engine's generic worker pool
	// directly: one cell per design point, baseline first.
	points := append([]Design{DesignBaseline}, designs...)
	perDesign, err := exp.Map(o.expOptions(), len(points), func(i int) (map[string]float64, error) {
		return run(points[i])
	})
	if err != nil {
		return nil, err
	}
	base := perDesign[0]
	for di, d := range designs {
		thr := perDesign[1+di]
		var sp []float64
		for _, n := range names {
			v := thr[n] / base[n]
			fig.Speedup[n][d.String()] = v
			sp = append(sp, v)
		}
		fig.Geo[d.String()] = stats.GeoMean(sp)
	}
	return fig, nil
}

// SHIFTvsPIF32KAbsolute returns SHIFT's absolute performance as a
// fraction of PIF_32K's under consolidation (the paper's 95%).
func (f *Figure10) SHIFTvsPIF32KAbsolute() float64 {
	pif := f.Geo[DesignPIF32K.String()]
	if pif <= 0 {
		return 0
	}
	return f.Geo[DesignSHIFT.String()] / pif
}

// String renders the consolidation speedup table.
func (f *Figure10) String() string {
	header := []string{"Workload (4 cores each)"}
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
	b.WriteString("Figure 10: Speedup under workload consolidation (per-workload histories)\n")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "SHIFT delivers %.0f%% of PIF_32K's absolute performance (paper: 95%%)\n",
		f.SHIFTvsPIF32KAbsolute()*100)
	return b.String()
}
