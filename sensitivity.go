package shift

import (
	"fmt"
	"strings"

	"shift/internal/core"
	"shift/internal/history"
	"shift/internal/stats"
)

// SensitivityPoint is one configuration of a design-parameter sweep.
type SensitivityPoint struct {
	// Parameter names the swept knob; Value is its setting.
	Parameter string
	// Value is the swept parameter's setting at this point.
	Value int
	// Speedup is over the no-prefetch baseline.
	Speedup float64
	// Coverage is the fraction of baseline misses eliminated.
	Coverage float64
}

// Sensitivity reproduces the Section 4.1 design-space study the paper
// summarizes ("a spatial region size of eight, a lookahead of five and a
// stream address buffer capacity of twelve achieve the maximum
// performance"; results were omitted from the paper for space). It also
// sweeps the stream count, which Section 4.1 fixes at four.
type Sensitivity struct {
	// Points holds every swept configuration, parameter-major.
	Points []SensitivityPoint
	// Workload is the measured workload (the first of o.Workloads).
	Workload string
}

// RunSensitivity sweeps SHIFT's SAB parameters on one workload (the first
// of o.Workloads).
func RunSensitivity(o Options) (*Sensitivity, error) {
	o, err := o.normalize()
	if err != nil {
		return nil, err
	}
	wname := o.Workloads[0]
	base, err := o.runBaseline(wname)
	if err != nil {
		return nil, err
	}

	// SAB mutations are not expressible as a public Config, so the sweep
	// runs its points as SHIFT variants on the engine.
	var points []SensitivityPoint
	var muts []func(*core.Config)
	add := func(param string, value int, mut func(*history.SABConfig)) {
		points = append(points, SensitivityPoint{Parameter: param, Value: value})
		muts = append(muts, func(c *core.Config) { mut(&c.SAB) })
	}
	for _, span := range []int{4, 8, 16} {
		add("region span", span, func(c *history.SABConfig) { c.Span = span })
	}
	for _, la := range []int{1, 3, 5, 8} {
		add("lookahead", la, func(c *history.SABConfig) { c.Lookahead = la })
	}
	for _, cap := range []int{6, 12, 24} {
		add("SAB capacity", cap, func(c *history.SABConfig) { c.Capacity = cap })
	}
	for _, streams := range []int{1, 2, 4, 8} {
		add("streams", streams, func(c *history.SABConfig) { c.Streams = streams })
	}
	speedup, covered, err := o.shiftVariants(wname, base, muts)
	if err != nil {
		return nil, err
	}
	for i := range points {
		points[i].Speedup, points[i].Coverage = speedup[i], covered[i]
	}
	return &Sensitivity{Workload: WorkloadDisplayName(wname), Points: points}, nil
}

// Best returns the best value found for a parameter.
func (s *Sensitivity) Best(param string) (value int, speedup float64) {
	for _, p := range s.Points {
		if p.Parameter == param && p.Speedup > speedup {
			value, speedup = p.Value, p.Speedup
		}
	}
	return
}

// String renders the sweep.
func (s *Sensitivity) String() string {
	t := stats.NewTable("Parameter", "Value", "Speedup", "Miss coverage (%)")
	for _, p := range s.Points {
		t.AddRow(p.Parameter, fmt.Sprintf("%d", p.Value),
			fmt.Sprintf("%.3f", p.Speedup), fmt.Sprintf("%.1f", p.Coverage*100))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Section 4.1 sensitivity (SHIFT on %s)\n", s.Workload)
	b.WriteString(t.String())
	for _, param := range []string{"region span", "lookahead", "SAB capacity", "streams"} {
		v, sp := s.Best(param)
		fmt.Fprintf(&b, "best %s: %d (%.3fx)\n", param, v, sp)
	}
	b.WriteString("(paper: span 8, lookahead 5, capacity 12, 4 streams are the tuned values)\n")
	return b.String()
}
