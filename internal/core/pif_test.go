package core

import (
	"testing"

	"shift/internal/history"
	"shift/internal/prefetch"
	"shift/internal/trace"
)

func TestPaperDesignPoints(t *testing.T) {
	c32 := PIFConfig(PIF32K)
	if c32.HistEntries != 32768 || c32.IndexEntries != 8192 || c32.IndexAssoc != 4 {
		t.Errorf("PIF_32K = %+v", c32)
	}
	c2 := PIFConfig(PIF2K)
	if c2.HistEntries != 2048 || c2.IndexEntries != 512 || c2.IndexAssoc != 4 {
		t.Errorf("PIF_2K = %+v", c2)
	}
	if c32.Variant != Dedicated || c32.RecordMisses {
		t.Errorf("PIF is not a dedicated history of the access stream: %+v", c32)
	}
}

func TestPIFConfigRescales(t *testing.T) {
	for _, n := range []int{1024, 2048, 65536} {
		c := PIFConfig(n)
		if err := c.Validate(); err != nil {
			t.Errorf("PIFConfig(%d) invalid: %v", n, err)
		}
		if c.HistEntries != n {
			t.Errorf("HistEntries = %d", c.HistEntries)
		}
	}
}

func TestPIFConfigValidate(t *testing.T) {
	for _, n := range []int{PIF32K, PIF2K} {
		if err := PIFConfig(n).Validate(); err != nil {
			t.Errorf("%s invalid: %v", PIFLabel(n), err)
		}
	}
	noHistory, badIndex, noSAB := PIFConfig(PIF32K), PIFConfig(PIF32K), PIFConfig(PIF32K)
	noHistory.HistEntries = 0
	badIndex.IndexEntries = 9
	noSAB.SAB = history.SABConfig{}
	for name, c := range map[string]Config{"no history": noHistory, "index 9/4": badIndex, "no SAB": noSAB} {
		if err := c.Validate(); err == nil {
			t.Errorf("bad PIF config (%s) accepted", name)
		}
	}
}

func TestPIFMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewSharedHistory should panic on a PIF without history")
		}
	}()
	c := PIFConfig(PIF32K)
	c.HistEntries = 0
	MustNewSharedHistory(c, 0, nil)
}

func testPIFConfig() Config {
	c := PIFConfig(PIF32K)
	c.HistEntries = 256
	c.IndexEntries = 64
	return c
}

// newPIF is one core's PIF: the replay engine over a history of cfg that
// the core alone records and replays.
func newPIF(cfg Config) *Replayer { return replayer(MustNewSharedHistory(cfg, 0, nil), 0) }

// runStream feeds a block sequence as misses and returns all requests.
func runStream(p *Replayer, blocks []trace.BlockAddr, hit bool) []prefetch.Request {
	var all []prefetch.Request
	for _, b := range blocks {
		reqs := p.OnAccess(prefetch.Access{Block: b, Hit: hit})
		all = append(all, reqs...)
	}
	return all
}

func TestRecordThenReplay(t *testing.T) {
	p := newPIF(testPIFConfig())
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
	if st := p.PrefetchStats(); st.RecordsWritten == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPIFCoverageOnReplay(t *testing.T) {
	p := newPIF(testPIFConfig())
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
	p := newPIF(testPIFConfig())
	reqs := p.OnAccess(prefetch.Access{Block: 42, Hit: false})
	if len(reqs) != 0 {
		t.Errorf("cold prefetcher issued %v", reqs)
	}
}

func TestHitsDoNotAllocateStreams(t *testing.T) {
	p := newPIF(testPIFConfig())
	stream := []trace.BlockAddr{100, 101, 102, 500, 501}
	runStream(p, stream, false)
	// All hits: no stream starts, so no prefetch window is emitted.
	if n := windows(p, stream, true); n != 0 {
		t.Errorf("hits emitted %d prefetch windows", n)
	}
}

func TestHistoryCapacityLimitsReplay(t *testing.T) {
	// A tiny history cannot retain a long loop; coverage should be far
	// lower than with a big history. This is the Figure 6 effect.
	small := testPIFConfig()
	small.HistEntries = 16
	small.IndexEntries = 16
	big := testPIFConfig()
	big.HistEntries = 4096
	big.IndexEntries = 1024

	// Build a long working loop: 600 discontinuous mini-streams.
	var loop []trace.BlockAddr
	for i := 0; i < 600; i++ {
		base := trace.BlockAddr(1000 + i*97)
		loop = append(loop, base, base+1)
	}
	coverage := func(cfg Config) float64 {
		p := newPIF(cfg)
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
	cfg := testPIFConfig()
	cfg.HistEntries = 8     // tiny: wraps fast
	cfg.IndexEntries = 1024 // large: 100's entry outlives its record
	cfg.SAB.Streams = 1     // a stream claimed in vain evicts the live one
	p := newPIF(cfg)
	runStream(p, []trace.BlockAddr{100, 200, 300, 400}, false)
	// Overwrite history with unrelated streams; index entry for 100 is
	// now stale. The history keeps the last 8 regions, 5410 to 5480.
	for i := 0; i < 50; i++ {
		runStream(p, []trace.BlockAddr{trace.BlockAddr(5000 + i*10), trace.BlockAddr(5001 + i*10)}, false)
	}
	// A live replay from the oldest region still held.
	if n := windows(p, []trace.BlockAddr{5410}, false); n != 1 {
		t.Fatalf("a miss on a recorded trigger emitted %d prefetch windows, want 1", n)
	}
	// The stale pointer starts no stream: the miss emits no window, and
	// the live stream keeps covering its next region.
	if n := windows(p, []trace.BlockAddr{100}, false); n != 0 {
		t.Errorf("stale pointer started a stream")
	}
	before := p.PrefetchStats().CoveredMisses
	p.OnAccess(prefetch.Access{Block: 5420, Hit: false})
	if p.PrefetchStats().CoveredMisses != before+1 {
		t.Error("the miss on a stale pointer took the live stream's slot")
	}
}
