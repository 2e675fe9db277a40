package core

import (
	"testing"

	"shift/internal/history"
	"shift/internal/prefetch"
	"shift/internal/trace"
)

func testTIFSConfig() Config {
	c := TIFSConfig()
	c.HistEntries = 256
	c.IndexEntries = 64
	return c
}

// newTIFS is one core's TIFS: the replay engine under the misses
// recorder, over a history of cfg that the core alone records and replays.
func newTIFS(cfg Config) *missRecorder {
	return MustNewSharedHistory(cfg, 0, nil).CorePrefetcher(0).(*missRecorder)
}

func TestTIFSConfigValidate(t *testing.T) {
	if err := TIFSConfig().Validate(); err != nil {
		t.Fatalf("TIFS invalid: %v", err)
	}
	noHistory, badIndex, noSAB := TIFSConfig(), TIFSConfig(), TIFSConfig()
	noHistory.HistEntries = 0
	badIndex.IndexEntries = 9
	noSAB.SAB = history.SABConfig{}
	for name, c := range map[string]Config{"no history": noHistory, "index 9/4": badIndex, "no SAB": noSAB} {
		if err := c.Validate(); err == nil {
			t.Errorf("bad TIFS config (%s) accepted", name)
		}
	}
}

func TestTIFSMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewSharedHistory should panic on a TIFS with a bad index table")
		}
	}()
	c := TIFSConfig()
	c.IndexEntries = 9
	MustNewSharedHistory(c, 0, nil)
}

// missStream drives blocks through as misses.
func missStream(p *missRecorder, blocks []trace.BlockAddr) []prefetch.Request {
	var all []prefetch.Request
	for _, b := range blocks {
		all = append(all, p.OnAccess(prefetch.Access{Block: b, Hit: false})...)
	}
	return all
}

func TestRecordsOnlyMisses(t *testing.T) {
	p := newTIFS(testTIFSConfig())
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
	p := newTIFS(testTIFSConfig())
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

func TestTIFSCoverageOnReplay(t *testing.T) {
	p := newTIFS(testTIFSConfig())
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
	p := newTIFS(testTIFSConfig())
	stream := []trace.BlockAddr{10, 20, 30}
	missStream(p, stream)
	// Hits must not start streams: they emit no prefetch window.
	if n := windows(p, stream, true); n != 0 {
		t.Errorf("hits emitted %d prefetch windows", n)
	}
}

// TestNotARecordWarmer: functional warming hands a RecordWarmer the
// access stream's region records, which are not TIFS's history; TIFS
// must be warmed through WarmAccess with the L1-I outcome.
func TestNotARecordWarmer(t *testing.T) {
	var p prefetch.Prefetcher = newTIFS(testTIFSConfig())
	if _, ok := p.(prefetch.RecordWarmer); ok {
		t.Error("TIFS is a prefetch.RecordWarmer")
	}
	if w, ok := p.(prefetch.Warmer); !ok || w.WarmNeeds() != prefetch.WarmMisses {
		t.Error("TIFS is not a prefetch.Warmer of the misses")
	}
}
