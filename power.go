package shift

import (
	"fmt"
	"strings"

	"shift/internal/area"
	"shift/internal/stats"
)

// PowerRow is one workload's SHIFT power overhead estimate.
type PowerRow struct {
	// Workload names the row.
	Workload string
	// ExtraMW is the CMP-wide extra power from history and index
	// activity in the LLC and NoC, in milliwatts.
	ExtraMW float64
	// PerLeanIOCorePct expresses the overhead relative to a Lean-IO
	// core's power budget.
	PerLeanIOCorePct float64
}

// PowerStudy reproduces the paper's Section 5.7: SHIFT's power overhead
// from (1) history buffer reads/writes and (2) index reads/writes in the
// LLC, estimated with the CACTI-calibrated energy model, against the
// paper's budget for the 16-core CMP (row power.max of paperRows).
type PowerStudy struct {
	// Rows holds one entry per workload.
	Rows []PowerRow
	// MaxMW is the worst-case workload's overhead.
	MaxMW float64
}

// leanIOCoreMW is the power budget of a Lean-IO (Cortex-A8-class) core at
// 2GHz, used only to express the overhead as a percentage; the A8 is
// commonly cited at <0.5W/GHz in 40nm-class processes.
const leanIOCoreMW = 500.0

// RunPowerStudy regenerates the Section 5.7 analysis from virtualized
// SHIFT runs.
func RunPowerStudy(o Options) (*PowerStudy, error) {
	o, err := o.normalize()
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, len(o.Workloads))
	for i, w := range o.Workloads {
		cells[i] = cell(o.config(w, DesignSHIFT))
	}
	results, err := o.engine().RunAll(cells)
	if err != nil {
		return nil, err
	}
	model := area.DefaultEnergyModel()
	study := &PowerStudy{}
	for i, w := range o.Workloads {
		res := results[i]
		mw := model.PowerMW(area.Activity{
			HistReads:       res.Traffic.HistRead,
			HistReadHops:    res.Traffic.HistReadHops,
			HistWrites:      res.Traffic.HistWrite,
			HistWriteHops:   res.Traffic.HistWriteHops,
			IndexUpdates:    res.Traffic.IndexUpdate,
			IndexUpdateHops: res.Traffic.IndexUpdateHops,
			Cycles:          res.MeanCoreCycles,
		})
		row := PowerRow{
			Workload:         WorkloadDisplayName(w),
			ExtraMW:          mw,
			PerLeanIOCorePct: mw / float64(o.Cores) / leanIOCoreMW * 100,
		}
		study.Rows = append(study.Rows, row)
		if mw > study.MaxMW {
			study.MaxMW = mw
		}
	}
	return study, nil
}

// UnderPaperBudget reports whether every workload stays under the paper's
// power budget.
func (p *PowerStudy) UnderPaperBudget() bool { return p.MaxMW < paper("power.max").value }

// String renders the power table.
func (p *PowerStudy) String() string {
	t := stats.NewTable("Workload", "Extra power (mW, 16-core CMP)", "Per Lean-IO core (%)")
	for _, r := range p.Rows {
		t.AddRow(r.Workload, fmt.Sprintf("%.1f", r.ExtraMW), fmt.Sprintf("%.2f", r.PerLeanIOCorePct))
	}
	var b strings.Builder
	b.WriteString("Section 5.7: SHIFT power overhead (history + index activity in LLC and NoC)\n")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "Worst case %.1f mW; under %s budget: %v\n", p.MaxMW, papers("power.max"), p.UnderPaperBudget())
	return b.String()
}
