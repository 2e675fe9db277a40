package shift

import (
	"fmt"
	"strings"

	"shift/internal/core"
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
// workload for SHIFT (the paper's values: rows fig10.* of paperRows).
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
	// CoresEach is how many cores run each consolidated workload.
	CoresEach int
}

// RunFigure10 regenerates Figure 10. Cores are split evenly across the
// four consolidated workloads, so Options.Cores must be a multiple of
// four.
func RunFigure10(o Options) (*Figure10, error) {
	o, err := o.normalize()
	if err != nil {
		return nil, err
	}
	names := ConsolidationWorkloads()
	if o.Cores%len(names) != 0 {
		return nil, fmt.Errorf("shift: Figure 10 splits the cores evenly across %d consolidated workloads, so it needs a multiple of %d cores, not %d",
			len(names), len(names), o.Cores)
	}
	per := o.Cores / len(names)
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
		CoresEach: per,
	}
	for _, n := range names {
		fig.Speedup[n] = make(map[string]float64)
	}

	// Consolidated runs are not expressible as a public Config (they
	// carry core groups), so they run as specs on the engine: one cell
	// per design point, baseline first.
	points := append([]Design{DesignBaseline}, designs...)
	specs := make([]sim.RunSpec, len(points))
	for i, d := range points {
		rs, err := o.runSpec(d)
		if err != nil {
			return nil, err
		}
		rs.Groups, rs.GroupWorkloads = groups, groupWl
		specs[i] = rs
	}
	results, err := o.engine().runSpecs(specs)
	if err != nil {
		return nil, err
	}
	// groupThroughput is the sum of one group's cores' IPC in result i.
	groupThroughput := func(i, g int) float64 {
		var thr float64
		for _, c := range groups[g].Cores {
			thr += results[i].PerCore[c].IPC
		}
		return thr
	}
	for di, d := range designs {
		var sp []float64
		for gi, n := range names {
			v := groupThroughput(1+di, gi) / groupThroughput(0, gi)
			fig.Speedup[n][d.String()] = v
			sp = append(sp, v)
		}
		fig.Geo[d.String()] = stats.GeoMean(sp)
	}
	return fig, nil
}

// SHIFTvsPIF32KAbsolute returns SHIFT's absolute performance as a
// fraction of PIF_32K's under consolidation.
func (f *Figure10) SHIFTvsPIF32KAbsolute() float64 {
	pif := f.Geo[DesignPIF32K.String()]
	if pif <= 0 {
		return 0
	}
	return f.Geo[DesignSHIFT.String()] / pif
}

// String renders the consolidation speedup table.
func (f *Figure10) String() string {
	each := fmt.Sprintf("Workload (%d cores each)", f.CoresEach)
	if f.CoresEach == 1 {
		each = "Workload (1 core each)"
	}
	header := []string{each}
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
	fmt.Fprintf(&b, "SHIFT delivers %.0f%% of PIF_32K's absolute performance %s\n",
		f.SHIFTvsPIF32KAbsolute()*100, paperNote("%s", "fig10.shift_vs_pif32k"))
	return b.String()
}
