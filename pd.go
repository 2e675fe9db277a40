package shift

import (
	"fmt"
	"strings"

	"shift/internal/area"
	"shift/internal/stats"
)

// PDPoint is one performance-density design point: a prefetcher on a core
// type, with performance and area relative to the prefetcher-less core.
type PDPoint struct {
	// CoreType and Design identify the point.
	CoreType, Design string
	// RelPerf is geometric-mean speedup over the baseline core.
	RelPerf float64
	// RelArea is (core + prefetcher)/core area.
	RelArea float64
	// PD is RelPerf/RelArea (>1 = the paper's shaded "PD gain" region).
	PD float64
	// PrefetcherAreaMM2 is the per-core prefetcher area cost.
	PrefetcherAreaMM2 float64
}

// PerfDensity reproduces the paper's Figure 2 and the Section 5.6
// analysis: performance density of PIF_2K, PIF_32K, and SHIFT across the
// Fat-OoO, Lean-OoO, and Lean-IO core designs. The paper's headline:
// SHIFT's PD gain over PIF_32K grows as the core gets leaner, and PIF
// actively loses PD on the Lean-IO core (rows pd.* of paperRows).
type PerfDensity struct {
	// Points holds one entry per (core type, design), core-type-major.
	Points []PDPoint
}

// llcBytesTotal is the Table I LLC: 512KB per core x 16.
const llcBytesTotal = 16 * 512 * 1024

// RunPerfDensity regenerates the PD study: for each core type it measures
// the geometric-mean speedup of each design over the no-prefetch baseline
// and combines it with the analytical area model. The speedup grids of
// all three core types are submitted to the engine as one combined grid,
// so every (core type × workload × design) cell runs on the worker pool.
func RunPerfDensity(o Options) (*PerfDensity, error) {
	o, err := o.normalize()
	if err != nil {
		return nil, err
	}
	designs := []Design{DesignPIF2K, DesignPIF32K, DesignSHIFT}
	coreTypes := AllCoreTypes()
	var cells []Cell
	perType := make([]Options, len(coreTypes))
	for i, ct := range coreTypes {
		oc := o
		oc.CoreType = ct
		perType[i] = oc
		cells = append(cells, speedupCells(oc, designs)...)
	}
	results, err := o.engine().RunAll(cells)
	if err != nil {
		return nil, err
	}

	pd := &PerfDensity{}
	stride := len(o.Workloads) * (1 + len(designs))
	for i, ct := range coreTypes {
		fig := speedupFromResults(perType[i], designs, results[i*stride:(i+1)*stride])
		for _, d := range designs {
			pref := d.areaPerCore(o.Cores)
			dp := area.Evaluate(d.String(), ct.internal(), pref, fig.Geo[d.String()])
			pd.Points = append(pd.Points, PDPoint{
				CoreType:          ct.String(),
				Design:            d.String(),
				RelPerf:           dp.RelPerf,
				RelArea:           dp.RelArea,
				PD:                dp.PD(),
				PrefetcherAreaMM2: pref,
			})
		}
	}
	return pd, nil
}

// Point returns the design point for (coreType, design), or nil.
func (p *PerfDensity) Point(ct CoreType, d Design) *PDPoint {
	for i := range p.Points {
		if p.Points[i].CoreType == ct.String() && p.Points[i].Design == d.String() {
			return &p.Points[i]
		}
	}
	return nil
}

// SHIFTPDGainOver returns SHIFT's PD improvement over the given design on
// the given core type (e.g. 0.59 for 59%).
func (p *PerfDensity) SHIFTPDGainOver(d Design, ct CoreType) float64 {
	sh := p.Point(ct, DesignSHIFT)
	other := p.Point(ct, d)
	if sh == nil || other == nil || other.PD == 0 {
		return 0
	}
	return sh.PD/other.PD - 1
}

// Figure2 renders the PIF_32K rows of the study — the paper's Figure 2
// (relative performance vs relative area against the PD=1 line).
func (p *PerfDensity) Figure2() string {
	t := stats.NewTable("Core", "Relative perf", "Relative area", "PD", "Region")
	for _, ct := range AllCoreTypes() {
		pt := p.Point(ct, DesignPIF32K)
		if pt == nil {
			continue
		}
		region := "PD gain"
		if pt.PD < 1 {
			region = "PD loss"
		} else if pt.PD < 1.005 {
			region = "~PD neutral"
		}
		t.AddRow(ct.String(), fmt.Sprintf("%.3f", pt.RelPerf),
			fmt.Sprintf("%.3f", pt.RelArea), fmt.Sprintf("%.3f", pt.PD), region)
	}
	return "Figure 2: PIF_32K performance vs area by core type (PD=1 line separates gain/loss)\n" + t.String()
}

// String renders the full Section 5.6 PD table.
func (p *PerfDensity) String() string {
	t := stats.NewTable("Core", "Design", "Rel perf", "Pref. area/core (mm^2)", "Rel area", "PD")
	for _, pt := range p.Points {
		t.AddRow(pt.CoreType, pt.Design,
			fmt.Sprintf("%.3f", pt.RelPerf),
			fmt.Sprintf("%.3f", pt.PrefetcherAreaMM2),
			fmt.Sprintf("%.3f", pt.RelArea),
			fmt.Sprintf("%.3f", pt.PD))
	}
	var b strings.Builder
	b.WriteString("Section 5.6: Performance-density comparison\n")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "SHIFT PD gain over PIF_32K: Fat-OoO %+.0f%%, Lean-OoO %+.0f%%, Lean-IO %+.0f%% %s\n",
		p.SHIFTPDGainOver(DesignPIF32K, FatOoO)*100,
		p.SHIFTPDGainOver(DesignPIF32K, LeanOoO)*100,
		p.SHIFTPDGainOver(DesignPIF32K, LeanIO)*100, paperNote("%s, %s, %s", "pd.fat", "pd.lean", "pd.io"))
	return b.String()
}
