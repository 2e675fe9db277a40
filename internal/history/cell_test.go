package history_test

import (
	"runtime"
	"strings"
	"testing"

	"shift/internal/core"
	"shift/internal/freelist"
	"shift/internal/sim"
	"shift/internal/workload"
)

// historyBytes returns the bytes allocated so far by the history buffers
// (history.NewBuffer and the Buffer methods), from the memory profile,
// and empties the free lists.
func historyBytes() int64 {
	freelist.Trim()
	// A profile is published two collections after its allocations.
	for range 3 {
		runtime.GC()
	}
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	var total int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if fn := strings.TrimPrefix(f.Function, "shift/internal/history."); fn != f.Function &&
				(fn == "NewBuffer" || strings.HasPrefix(fn, "(*Buffer).")) {
				total += r.AllocBytes
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// TestCellHistoryBytes is the footprint gate of a run-sized history: on
// empty free lists, the four histories of a 4-core PIF_32K cell over 500
// + 500 records allocate for at most the 1,000 records each can write
// (plus the allocator's size-class rounding, at most an eighth), not for
// the 32K records each models (256 KB a core).
func TestCellHistoryBytes(t *testing.T) {
	p, err := workload.ByName("OLTP Oracle")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Cores = 4
	cfg.Prefetcher = sim.PrefetcherSpec{Kind: sim.KindHistory, History: core.PIFConfig(core.PIF32K), PerCore: true}
	spec := sim.RunSpec{Config: cfg, Workload: p, WarmupRecords: 500, MeasureRecords: 500}

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := historyBytes() // also empties the free lists
	if _, err := sim.Run(spec); err != nil {
		t.Fatal(err)
	}
	got := historyBytes() - before
	limit := int64(cfg.Cores) * 1000 * 8 * 9 / 8
	t.Logf("%d B of history for %d cores", got, cfg.Cores)
	if got == 0 || got > limit {
		t.Errorf("a 4-core 500 + 500 PIF_32K cell allocates %d B of history, limit %d (1,000 records a core)", got, limit)
	}
}
