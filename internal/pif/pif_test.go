package pif

import (
	"testing"

	"shift/internal/history"
	"shift/internal/prefetch"
	"shift/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{Config32K(), Config2K()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", c.Name(), err)
		}
	}
	bad := []Config{
		{HistEntries: 0, IndexEntries: 8, IndexAssoc: 4, SAB: history.DefaultSABConfig()},
		{HistEntries: 8, IndexEntries: 0, IndexAssoc: 4, SAB: history.DefaultSABConfig()},
		{HistEntries: 8, IndexEntries: 9, IndexAssoc: 4, SAB: history.DefaultSABConfig()},
		{HistEntries: 8, IndexEntries: 8, IndexAssoc: 4},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPaperDesignPoints(t *testing.T) {
	c32 := Config32K()
	if c32.HistEntries != 32768 || c32.IndexEntries != 8192 {
		t.Errorf("PIF_32K = %+v", c32)
	}
	if c32.Name() != "PIF_32K" {
		t.Errorf("Name = %q", c32.Name())
	}
	c2 := Config2K()
	if c2.HistEntries != 2048 || c2.IndexEntries != 512 {
		t.Errorf("PIF_2K = %+v", c2)
	}
}

func TestWithHistEntries(t *testing.T) {
	for _, n := range []int{1024, 2048, 65536} {
		c := WithHistEntries(n)
		if err := c.Validate(); err != nil {
			t.Errorf("WithHistEntries(%d) invalid: %v", n, err)
		}
		if c.HistEntries != n {
			t.Errorf("HistEntries = %d", c.HistEntries)
		}
	}
}

func testConfig() Config {
	c := Config32K()
	c.HistEntries = 256
	c.IndexEntries = 64
	c.Label = "PIF_test"
	return c
}

// runStream feeds a block sequence as misses and returns all requests.
func runStream(p *PIF, blocks []trace.BlockAddr, hit bool) []prefetch.Request {
	var all []prefetch.Request
	for _, b := range blocks {
		reqs := p.OnAccess(prefetch.Access{Block: b, Hit: hit})
		all = append(all, reqs...)
	}
	return all
}

func TestRecordThenReplay(t *testing.T) {
	p := MustNew(testConfig())
	// A recurring temporal stream with discontinuities: the second
	// traversal should be predicted from history.
	stream := []trace.BlockAddr{100, 101, 102, 500, 501, 900, 901, 902, 903, 2000, 2001}
	runStream(p, stream, false) // first pass: record
	// Re-run the stream: on the first miss (block 100), the index should
	// find the recorded stream and prefetch ahead.
	reqs := p.OnAccess(prefetch.Access{Block: 100, Hit: false})
	if len(reqs) == 0 {
		t.Fatal("no prefetches on recurrence of recorded stream head")
	}
	want := map[trace.BlockAddr]bool{}
	for _, r := range reqs {
		want[r.Block] = true
	}
	// The stream's following blocks should be among the prefetches.
	for _, b := range []trace.BlockAddr{101, 102, 500} {
		if !want[b] {
			t.Errorf("block %d not prefetched; got %v", b, reqs)
		}
	}
	st := p.PrefetchStats()
	if st.StreamAllocs == 0 || st.RecordsWritten == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCoverageOnReplay(t *testing.T) {
	p := MustNew(testConfig())
	stream := []trace.BlockAddr{100, 101, 102, 500, 501, 900, 901, 902, 903, 2000, 2001}
	// Record the stream a few times so the index is warm.
	for i := 0; i < 3; i++ {
		runStream(p, stream, false)
	}
	before := p.PrefetchStats()
	runStream(p, stream, false)
	after := p.PrefetchStats()
	coveredDelta := after.CoveredMisses - before.CoveredMisses
	// All but the stream head should be covered on the final pass.
	if coveredDelta < int64(len(stream))-3 {
		t.Errorf("covered %d of %d misses on replay", coveredDelta, len(stream))
	}
}

func TestNoReplayWithoutHistory(t *testing.T) {
	p := MustNew(testConfig())
	reqs := p.OnAccess(prefetch.Access{Block: 42, Hit: false})
	if len(reqs) != 0 {
		t.Errorf("cold prefetcher issued %v", reqs)
	}
}

func TestHitsDoNotAllocateStreams(t *testing.T) {
	p := MustNew(testConfig())
	stream := []trace.BlockAddr{100, 101, 102, 500, 501}
	runStream(p, stream, false)
	before := p.PrefetchStats().StreamAllocs
	runStream(p, stream, true) // all hits: no allocation needed
	if got := p.PrefetchStats().StreamAllocs; got != before {
		t.Errorf("hits allocated streams: %d -> %d", before, got)
	}
}

func TestHistoryCapacityLimitsReplay(t *testing.T) {
	// A tiny history cannot retain a long loop; coverage should be far
	// lower than with a big history. This is the Figure 6 effect.
	small := testConfig()
	small.HistEntries = 16
	small.IndexEntries = 16
	big := testConfig()
	big.HistEntries = 4096
	big.IndexEntries = 1024

	// Build a long working loop: 600 discontinuous mini-streams.
	var loop []trace.BlockAddr
	for i := 0; i < 600; i++ {
		base := trace.BlockAddr(1000 + i*97)
		loop = append(loop, base, base+1)
	}
	coverage := func(cfg Config) float64 {
		p := MustNew(cfg)
		for pass := 0; pass < 4; pass++ {
			runStream(p, loop, false)
		}
		return p.PrefetchStats().MissCoverage()
	}
	cs, cb := coverage(small), coverage(big)
	if cb <= cs+0.2 {
		t.Errorf("big history coverage %.2f not clearly above small %.2f", cb, cs)
	}
}

func TestStaleIndexPointerIgnored(t *testing.T) {
	cfg := testConfig()
	cfg.HistEntries = 8 // tiny: wraps fast
	cfg.IndexEntries = 64
	p := MustNew(cfg)
	runStream(p, []trace.BlockAddr{100, 200, 300, 400}, false)
	// Overwrite history with unrelated streams; index entry for 100 is
	// now stale.
	for i := 0; i < 50; i++ {
		runStream(p, []trace.BlockAddr{trace.BlockAddr(5000 + i*10), trace.BlockAddr(5001 + i*10)}, false)
	}
	allocsBefore := p.PrefetchStats().StreamAllocs
	p.OnAccess(prefetch.Access{Block: 100, Hit: false})
	// Either no allocation (stale detected) or an allocation replaying
	// wrong data; our model detects staleness.
	if got := p.PrefetchStats().StreamAllocs; got != allocsBefore {
		t.Errorf("stale pointer allocated a stream")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic")
		}
	}()
	MustNew(Config{})
}
