package tifs

import (
	"testing"

	"shift/internal/history"
	"shift/internal/prefetch"
	"shift/internal/trace"
)

func testCfg() Config {
	c := DefaultConfig()
	c.HistEntries = 256
	c.IndexEntries = 64
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
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

// missStream drives blocks through as misses.
func missStream(p *TIFS, blocks []trace.BlockAddr) []prefetch.Request {
	var all []prefetch.Request
	for _, b := range blocks {
		all = append(all, p.OnAccess(prefetch.Access{Block: b, Hit: false})...)
	}
	return all
}

func TestRecordsOnlyMisses(t *testing.T) {
	p := MustNew(testCfg())
	p.OnAccess(prefetch.Access{Block: 1, Hit: true})
	p.OnAccess(prefetch.Access{Block: 2, Hit: true})
	if p.PrefetchStats().RecordsWritten != 0 {
		t.Error("hits were recorded into the miss history")
	}
	p.OnAccess(prefetch.Access{Block: 3, Hit: false})
	if p.PrefetchStats().RecordsWritten != 1 {
		t.Error("miss not recorded")
	}
	// First use of a prefetched block is a would-be miss: recorded.
	p.OnAccess(prefetch.Access{Block: 4, Hit: true, WasPrefetch: true})
	if p.PrefetchStats().RecordsWritten != 2 {
		t.Error("prefetched first-use not recorded in miss stream")
	}
}

func TestReplayMissStream(t *testing.T) {
	p := MustNew(testCfg())
	stream := []trace.BlockAddr{100, 205, 311, 450, 520}
	missStream(p, stream)
	missStream(p, []trace.BlockAddr{9000}) // push the stream into history
	// Recurrence of the stream head should prefetch the following misses.
	reqs := p.OnAccess(prefetch.Access{Block: 100, Hit: false})
	if len(reqs) == 0 {
		t.Fatal("no prefetches on miss-stream recurrence")
	}
	got := map[trace.BlockAddr]bool{}
	for _, r := range reqs {
		got[r.Block] = true
	}
	for _, b := range []trace.BlockAddr{205, 311, 450} {
		if !got[b] {
			t.Errorf("block %d not prefetched; got %v", b, reqs)
		}
	}
}

func TestCoverageOnReplay(t *testing.T) {
	p := MustNew(testCfg())
	stream := []trace.BlockAddr{100, 205, 311, 450, 520}
	for i := 0; i < 3; i++ {
		missStream(p, stream)
	}
	before := p.PrefetchStats().CoveredMisses
	missStream(p, stream)
	delta := p.PrefetchStats().CoveredMisses - before
	if delta < int64(len(stream))-2 {
		t.Errorf("covered %d of %d recurring misses", delta, len(stream))
	}
}

func TestPlainHitsInvisible(t *testing.T) {
	p := MustNew(testCfg())
	stream := []trace.BlockAddr{10, 20, 30}
	missStream(p, stream)
	allocs := p.PrefetchStats().StreamAllocs
	// Hits must not start streams.
	for _, b := range stream {
		p.OnAccess(prefetch.Access{Block: b, Hit: true})
	}
	if p.PrefetchStats().StreamAllocs != allocs {
		t.Error("hits allocated streams")
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

// TestNotARecordWarmer: functional warming hands a RecordWarmer the
// access stream's region records, which are not TIFS's history; TIFS
// must be warmed through WarmAccess with the L1-I outcome.
func TestNotARecordWarmer(t *testing.T) {
	var p prefetch.Prefetcher = MustNew(testCfg())
	if _, ok := p.(prefetch.RecordWarmer); ok {
		t.Error("TIFS is a prefetch.RecordWarmer")
	}
	if w, ok := p.(prefetch.Warmer); !ok || w.WarmNeeds() != prefetch.WarmMisses {
		t.Error("TIFS is not a prefetch.Warmer of the misses")
	}
}
