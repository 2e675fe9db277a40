package shift

import (
	"fmt"
	"testing"

	"shift/internal/core"
	"shift/internal/sim"
	"shift/internal/workload"
)

// TestZeroLatPerCoreGroupsArePIF pins the cross-design identity behind
// the paper's 2×2 of private/shared and dedicated/virtualized history:
// ZeroLat-SHIFT with one consolidation group per core (each core the
// generator of a private, dedicated history, over per-group record
// streams) sized like a PIF design point is that PIF — a history of PIF's
// geometry in per-core scope — core for core, exact and sampled. Any
// drift between per-core scope and one group per core, in the index
// geometry or in the consolidation runner's streams, breaks the identity.
func TestZeroLatPerCoreGroupsArePIF(t *testing.T) {
	const cores = 4
	groups := make([]core.Group, cores)
	for c := range groups {
		groups[c] = core.Group{Name: fmt.Sprintf("core %d", c), Cores: []int{c}}
	}
	pifs := []Design{DesignPIF32K, DesignPIF2K}
	for _, sampling := range []Sampling{{}, {Period: 4}} {
		o := Options{Cores: cores, WarmupRecords: 4000, MeasureRecords: 4000, Seed: 1, Sampling: sampling}
		mode := "exact"
		if sampling.Enabled() {
			o.MeasureRecords = 16000
			mode = fmt.Sprintf("sampled 1 in %d", sampling.Period)
		}
		var specs []sim.RunSpec
		var labels []string
		for _, name := range Workloads() {
			wp, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range pifs {
				pifSpec, err := o.config(name, d).spec()
				if err != nil {
					t.Fatal(err)
				}
				pifSpec.Workload = wp
				pc := pifSpec.Config.Prefetcher.History

				zl, err := o.config(name, DesignZeroLatSHIFT).spec()
				if err != nil {
					t.Fatal(err)
				}
				sc := &zl.Config.Prefetcher.History
				sc.HistEntries, sc.IndexEntries, sc.IndexAssoc = pc.HistEntries, pc.IndexEntries, pc.IndexAssoc
				zl.Groups, zl.GroupWorkloads = groups, make([]workload.Params, cores)
				for c := range zl.GroupWorkloads {
					zl.GroupWorkloads[c] = wp
				}
				specs = append(specs, pifSpec, zl)
				labels = append(labels, fmt.Sprintf("%s, %s, %s", mode, name, d))
			}
		}
		results, err := NewEngine(0, nil).runSpecs(specs)
		if err != nil {
			t.Fatal(err)
		}
		for i, label := range labels {
			p, z := results[2*i], results[2*i+1]
			for c := 0; c < cores; c++ {
				if p.PerCore[c] != z.PerCore[c] {
					t.Errorf("%s: core %d: PIF %+v, ZeroLat-SHIFT per-core group %+v", label, c, p.PerCore[c], z.PerCore[c])
				}
			}
			if p.Fetch != z.Fetch {
				t.Errorf("%s: fetch: PIF %+v, ZeroLat-SHIFT per-core groups %+v", label, p.Fetch, z.Fetch)
			}
		}
	}
}
