package shift

import (
	"testing"

	"shift/internal/race"
)

// TestHotPathAllocs is the allocation budget of a replayed cell: every
// cell a shiftd job serves from the store is checked by Config.Validate,
// computes its key once and passes through Engine.RunKeyed, so an
// allocation on any of the three is paid per cell, in GC time as much as
// in the allocation itself.
func TestHotPathAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector: allocation counts are not the production ones")
	}
	cfg := DefaultRunConfig("OLTP Oracle", DesignSHIFT)
	cfg.Sampling.Period = 5
	if n := testing.AllocsPerRun(100, func() { _ = cfg.Validate() }); n > 1 {
		t.Errorf("Config.Validate on a catalog cell makes %.0f allocations, want at most 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = cfg.Key() }); n > 2 {
		t.Errorf("Config.Key makes %.0f allocations, want at most 2", n)
	}

	cache := NewResultCache()
	e := NewEngine(1, cache)
	var cfgs []Config
	for _, d := range g12Designs {
		c := DefaultRunConfig("OLTP Oracle", d)
		cache.Store(c.Key(), RunResult{Workload: c.Workload, Design: d.String()})
		cfgs = append(cfgs, c)
	}
	// The all-hit grid of six keyed and run as a cluster worker does,
	// counted with Go 1.24: the keyed configs, a key per cell, and the
	// result and error slices. With a label per cell, a key slice and a
	// first-index map it made 17; with fmt keys and key-indexed result
	// maps, 59.
	const budget = 9
	keyAndRun := func() []KeyedConfig {
		ks := make([]KeyedConfig, len(cfgs))
		for i, c := range cfgs {
			ks[i] = KeyConfig(c)
		}
		if _, errs := e.RunKeyed(ks); errs[0] != nil {
			t.Fatal(errs[0])
		}
		return ks
	}
	n := testing.AllocsPerRun(100, func() { keyAndRun() })
	t.Logf("KeyConfig and RunKeyed over %d all-hit cells: %.0f allocations", len(cfgs), n)
	if n > budget {
		t.Errorf("KeyConfig and RunKeyed over %d all-hit cells make %.0f allocations, budget %d", len(cfgs), n, budget)
	}
	// Keyed by the caller (shiftd's job registry), the grid hashes nothing
	// and allocates its result and error slices alone.
	ks := keyAndRun()
	if n := testing.AllocsPerRun(100, func() { e.RunKeyed(ks) }); n > 2 {
		t.Errorf("RunKeyed over %d all-hit cells makes %.0f allocations, want 2", len(ks), n)
	}
}
