package core

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"shift/internal/prefetch"
	"shift/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/script.golden with current output")

// TestScriptGolden drives one TIFS through a seeded access script and
// compares everything it does with testdata/script.golden: the requests
// each access emits, the prefetch statistics and the history contents.
// A small LRU cache and the set of prefetched, not yet used blocks decide
// each access's outcome, so the script holds plain hits, misses and first
// uses of prefetched blocks, and stretches of functional warming
// (WarmAccess) between detailed ones. The small history and index wrap
// and evict along the way.
func TestScriptGolden(t *testing.T) {
	cfg := TIFSConfig()
	cfg.HistEntries = 96
	cfg.IndexEntries = 32
	sh := MustNewSharedHistory(cfg, 0, nil)
	p := sh.CorePrefetcher(0).(*missRecorder)

	rng := rand.New(rand.NewPCG(45, 2008))
	segs := make([][]trace.BlockAddr, 14)
	for i := range segs {
		base := trace.BlockAddr(0x1000 + 0x100*i)
		for n := 3 + rng.IntN(6); n > 0; n-- {
			segs[i] = append(segs[i], base+trace.BlockAddr(rng.IntN(64)))
		}
	}

	const cacheBlocks = 20
	var lru []trace.BlockAddr // most recent last
	prefetched := map[trace.BlockAddr]bool{}
	touch := func(b trace.BlockAddr) (hit bool) {
		for i, x := range lru {
			if x == b {
				lru = append(append(lru[:i:i], lru[i+1:]...), b)
				return true
			}
		}
		if len(lru) == cacheBlocks {
			delete(prefetched, lru[0])
			lru = lru[1:]
		}
		lru = append(lru, b)
		return false
	}

	var sb strings.Builder
	step := 0
	for round := 0; round < 160; round++ {
		// Skewed segment choice: low segments recur most.
		seg := segs[min(rng.IntN(len(segs)), rng.IntN(len(segs)))]
		warm := round%40 >= 30 // every 40 rounds, 10 rounds functional
		for _, b := range seg {
			step++
			if warm {
				hit := touch(b)
				p.WarmAccess(b, hit)
				fmt.Fprintf(&sb, "%d warm %#x hit=%v\n", step, uint64(b), hit)
				continue
			}
			a := prefetch.Access{Block: b}
			if prefetched[b] {
				delete(prefetched, b)
				a.Hit, a.WasPrefetch = true, true
				touch(b)
			} else {
				a.Hit = touch(b)
			}
			reqs := p.OnAccess(a)
			fmt.Fprintf(&sb, "%d access %#x hit=%v pf=%v ->", step, uint64(b), a.Hit, a.WasPrefetch)
			for _, r := range reqs {
				fmt.Fprintf(&sb, " %#x", uint64(r.Block))
				if r.Delay != 0 {
					fmt.Fprintf(&sb, "+%d", r.Delay)
				}
				if !prefetched[r.Block] && !touch(r.Block) {
					prefetched[r.Block] = true
				}
			}
			sb.WriteByte('\n')
		}
	}
	// The golden pins the design's statistics; the index counters beside
	// them, which a simulator probe reads, are checked against them here:
	// every miss no stream covers looks the index up.
	st := p.PrefetchStats()
	fmt.Fprintf(&sb, "stats {Accesses:%d Misses:%d CoveredAccesses:%d CoveredMisses:%d RecordsWritten:%d}\n",
		st.Accesses, st.Misses, st.CoveredAccesses, st.CoveredMisses, st.RecordsWritten)
	if st.IndexLookups != st.Misses-st.CoveredMisses || st.IndexHits == 0 || st.IndexHits > st.IndexLookups || st.ForeignPointers != 0 {
		t.Errorf("%d uncovered misses, %d index lookups, %d hits, %d foreign pointers",
			st.Misses-st.CoveredMisses, st.IndexLookups, st.IndexHits, st.ForeignPointers)
	}
	h := sh.History()
	live := min(h.WritePos(), uint64(sh.Config().HistEntries))
	fmt.Fprintf(&sb, "history writepos=%d len=%d\n", h.WritePos(), live)
	for pos := h.WritePos() - live; pos < h.WritePos(); pos++ {
		r, ok := h.Read(pos)
		fmt.Fprintf(&sb, "%d %v %v\n", pos, r, ok)
	}

	const path = "testdata/script.golden"
	got := sb.String()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("script diverges from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("script output has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
