package core

import (
	"fmt"

	"shift/internal/trace"
)

// Group assigns a contiguous range of cores to one consolidated workload
// (Section 4.3: one history buffer and one generator core per workload).
type Group struct {
	// Name labels the workload.
	Name string
	// Cores lists the core IDs running this workload.
	Cores []int
}

// NewGroups builds one SharedHistory per consolidated workload. Each
// group's generator core is its first core, and each history gets a
// disjoint HBBase range ("the operating system or the hypervisor needs to
// assign one history generator core per workload and set the history
// buffer base address").
//
// The backend is shared: the histories live side by side in the same LLC.
// writes bounds the records each history appends, as for NewSharedHistory.
func NewGroups(base Config, groups []Group, writes int, backend LLCBackend) ([]*SharedHistory, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("core: no workload groups")
	}
	seen := make(map[int]bool)
	shs := make([]*SharedHistory, len(groups))
	hb := base.HBBase
	if hb == 0 {
		hb = HBBaseBlock
	}
	for i, g := range groups {
		if len(g.Cores) == 0 {
			return nil, fmt.Errorf("core: group %q has no cores", g.Name)
		}
		for _, c := range g.Cores {
			if seen[c] {
				return nil, fmt.Errorf("core: core %d assigned to two groups", c)
			}
			seen[c] = true
		}
		cfg := base
		cfg.GeneratorCore = g.Cores[0]
		cfg.HBBase = hb
		sh, err := NewSharedHistory(cfg, writes, backend)
		if err != nil {
			return nil, fmt.Errorf("core: group %q: %w", g.Name, err)
		}
		shs[i] = sh
		// Advance the base past this history's range (block-aligned).
		hb += trace.BlockAddr(cfg.HistoryBlocks())
	}
	return shs, nil
}
