package shift

import (
	"encoding/json"
	"fmt"
	"strings"

	"shift/internal/spec"
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
	// Figure8 is the speedup grid, a row per consolidated workload: the
	// throughput of that workload's cores over the baseline run's.
	Figure8
	// CoresEach is how many cores run each consolidated workload.
	CoresEach int
}

// RunFigure10 regenerates Figure 10. Cores are split evenly across the
// four consolidated workloads, so Options.Cores must be a multiple of
// four. The consolidated CMP is a mix spec of the catalog workloads, so
// the baseline and every design are ordinary cells of one workload: they
// run as one stream-sharing batch and are stored like any other cells.
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
	mix, err := consolidationSpec(names, per)
	if err != nil {
		return nil, err
	}

	designs := FigureDesigns()
	points := append([]Design{DesignBaseline}, designs...)
	cells := make([]Cell, len(points))
	for i, d := range points {
		cells[i] = cell(o.config(mix, d))
	}
	results, err := o.engine().RunAll(cells)
	if err != nil {
		return nil, err
	}
	// Each cell's group rows, checked against the spec's clients, make
	// Figure 8's grid with a row per group.
	grid := make([]RunResult, len(names)*len(points))
	for i, r := range results {
		ok := r.Groups != nil && len(*r.Groups) == len(names)
		for gi := 0; ok && gi < len(names); gi++ {
			ok = (*r.Groups)[gi].Name == names[gi]
		}
		if !ok {
			return nil, fmt.Errorf("shift: Figure 10 cell %s does not have one group row for each of %q", cells[i].Label, names)
		}
		for gi, g := range *r.Groups {
			grid[gi*len(points)+i].Throughput = g.Throughput
		}
	}
	return &Figure10{Figure8: *speedupFromResults(names, designs, grid), CoresEach: per}, nil
}

// consolidationSpec loads the mix spec of Figure 10's consolidated CMP
// and returns its workload ID: a client per catalog workload, named and
// seeded as the catalog entry, on per cores each.
func consolidationSpec(names []string, per int) (string, error) {
	s := spec.Spec{Name: "Figure 10 consolidation"}
	for _, n := range names {
		wp, err := workload.ByName(n)
		if err != nil {
			return "", err
		}
		s.Mix = append(s.Mix, spec.ClientSpec{Name: n, Cores: per, Workload: spec.WorkloadSpec{Base: n, Seed: &wp.Seed}})
	}
	doc, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	return LoadSpec(doc)
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
	var b strings.Builder
	b.WriteString("Figure 10: Speedup under workload consolidation (per-workload histories)\n")
	b.WriteString(f.table(each))
	fmt.Fprintf(&b, "SHIFT delivers %.0f%% of PIF_32K's absolute performance %s\n",
		f.SHIFTvsPIF32KAbsolute()*100, paperNote("%s", "fig10.shift_vs_pif32k"))
	return b.String()
}
