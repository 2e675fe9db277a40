package shift

import (
	"fmt"
	"strings"

	"shift/internal/core"
	"shift/internal/stats"
)

// GeneratorPoint is one choice of history generator core and the coverage
// and speedup SHIFT achieves with it.
type GeneratorPoint struct {
	// GeneratorCore is the core elected to record the shared history.
	GeneratorCore int
	// Speedup is over the no-prefetch baseline.
	Speedup float64
	// Covered is the fraction of baseline misses eliminated.
	Covered float64
}

// GeneratorStudy reproduces the paper's Section 6.1 claim: "in a
// sixteen-core system, there is no sensitivity to the choice of the
// history generator core". The cores of a homogeneous server workload
// execute statistically identical streams, so any of them can record the
// shared history.
type GeneratorStudy struct {
	// Workload is the measured workload (the first of o.Workloads).
	Workload string
	// Points holds one entry per evaluated generator-core choice.
	Points []GeneratorPoint
	// Spread is (max-min)/mean speedup across generator choices.
	Spread float64
}

// RunGeneratorStudy measures SHIFT with several different generator cores
// on the first workload of o.Workloads.
func RunGeneratorStudy(o Options) (*GeneratorStudy, error) {
	o, err := o.normalize()
	if err != nil {
		return nil, err
	}
	wname := o.Workloads[0]
	base, err := o.runBaseline(wname)
	if err != nil {
		return nil, err
	}
	study := &GeneratorStudy{Workload: WorkloadDisplayName(wname)}
	seen := map[int]bool{}
	var gens []int
	for _, g := range []int{0, o.Cores / 3, o.Cores / 2, o.Cores - 1} {
		if !seen[g] {
			seen[g] = true
			gens = append(gens, g)
		}
	}
	// Generator choice is a sim-level knob, so the study runs its cells
	// as SHIFT variants on the engine.
	muts := make([]func(*core.Config), len(gens))
	for i, g := range gens {
		muts[i] = func(c *core.Config) { c.GeneratorCore = g }
	}
	speedups, covered, err := o.shiftVariants(wname, base, muts)
	if err != nil {
		return nil, err
	}
	for i, g := range gens {
		study.Points = append(study.Points, GeneratorPoint{GeneratorCore: g, Speedup: speedups[i], Covered: covered[i]})
	}
	if m := stats.Mean(speedups); m > 0 {
		study.Spread = (stats.Max(speedups) - stats.Min(speedups)) / m
	}
	return study, nil
}

// String renders the study.
func (g *GeneratorStudy) String() string {
	t := stats.NewTable("Generator core", "Speedup", "Misses covered (%)")
	for _, p := range g.Points {
		t.AddRow(fmt.Sprintf("%d", p.GeneratorCore),
			fmt.Sprintf("%.3f", p.Speedup), fmt.Sprintf("%.1f", p.Covered*100))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Section 6.1: choice of history generator core (%s)\n", g.Workload)
	b.WriteString(t.String())
	fmt.Fprintf(&b, "Speedup spread across choices: %.1f%% %s\n", g.Spread*100, paperNote("%s", "sec6.1.spread"))
	return b.String()
}
