package shift

import (
	"fmt"
	"strings"

	"shift/internal/stats"
)

// TrafficRow is one workload's SHIFT-induced extra LLC traffic, as
// percentages of the baseline system's demand (instruction + data) LLC
// traffic.
type TrafficRow struct {
	// Workload names the row.
	Workload string
	// LogRead/LogWrite are history-buffer reads and writes; Discard is
	// traffic for prefetched blocks discarded before use. IndexUpdate is
	// reported separately because it touches only the LLC tag array
	// (the paper reports it in the text).
	LogRead, LogWrite, Discard, IndexUpdate float64
}

// Total returns the data-array traffic increase (the paper's stacked
// bars: LogRead + LogWrite + Discard).
func (r TrafficRow) Total() float64 { return r.LogRead + r.LogWrite + r.Discard }

// Figure9 reproduces the paper's Figure 9: virtualized SHIFT's extra LLC
// traffic normalized to baseline demand traffic: history reads+writes
// and discards on average, and the worst workload (the paper's values:
// rows fig9.* of paperRows).
type Figure9 struct {
	// Rows holds one entry per workload, in Workloads order.
	Rows []TrafficRow
	// Workloads is the row axis, in rendering order.
	Workloads []string
}

// RunFigure9 regenerates Figure 9.
func RunFigure9(o Options) (*Figure9, error) {
	o, err := o.normalize()
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, w := range o.Workloads {
		cells = append(cells, cell(o.config(w, DesignBaseline)), cell(o.config(w, DesignSHIFT)))
	}
	results, err := o.engine().RunAll(cells)
	if err != nil {
		return nil, err
	}
	fig := &Figure9{Workloads: displayNames(o.Workloads)}
	for wi, w := range o.Workloads {
		base, res := results[2*wi], results[2*wi+1]
		denom := float64(base.Traffic.Demand())
		fig.Rows = append(fig.Rows, TrafficRow{
			Workload:    WorkloadDisplayName(w),
			LogRead:     float64(res.Traffic.HistRead) / denom * 100,
			LogWrite:    float64(res.Traffic.HistWrite) / denom * 100,
			Discard:     float64(res.Traffic.Discard) / denom * 100,
			IndexUpdate: float64(res.Traffic.IndexUpdate) / denom * 100,
		})
	}
	return fig, nil
}

// MeanLogTraffic returns the mean history read+write increase.
func (f *Figure9) MeanLogTraffic() float64 {
	var vals []float64
	for _, r := range f.Rows {
		vals = append(vals, r.LogRead+r.LogWrite)
	}
	return stats.Mean(vals)
}

// MeanDiscard returns the mean discard traffic increase.
func (f *Figure9) MeanDiscard() float64 {
	var vals []float64
	for _, r := range f.Rows {
		vals = append(vals, r.Discard)
	}
	return stats.Mean(vals)
}

// WorstTotal returns the workload with the largest total increase.
func (f *Figure9) WorstTotal() (string, float64) {
	name, worst := "", 0.0
	for _, r := range f.Rows {
		if t := r.Total(); t > worst {
			name, worst = r.Workload, t
		}
	}
	return name, worst
}

// String renders the traffic table.
func (f *Figure9) String() string {
	t := stats.NewTable("Workload", "LogRead (%)", "LogWrite (%)", "Discard (%)", "Total (%)", "IndexUpd (tag-only, %)")
	for _, r := range f.Rows {
		t.AddRow(r.Workload,
			fmt.Sprintf("%.1f", r.LogRead),
			fmt.Sprintf("%.1f", r.LogWrite),
			fmt.Sprintf("%.1f", r.Discard),
			fmt.Sprintf("%.1f", r.Total()),
			fmt.Sprintf("%.1f", r.IndexUpdate))
	}
	var b strings.Builder
	b.WriteString("Figure 9: SHIFT LLC traffic overhead (% of baseline demand traffic)\n")
	b.WriteString(t.String())
	worstName, worstVal := f.WorstTotal()
	fmt.Fprintf(&b, "Mean: log %.1f%% + discard %.1f%%; worst %s %.1f%% %s\n",
		f.MeanLogTraffic(), f.MeanDiscard(), worstName, worstVal, paperNote("%s+%s, worst %s %s", "fig9.log", "fig9.discard", "fig9.worst", "fig9.worst_total"))
	return b.String()
}
