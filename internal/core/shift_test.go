package core

import (
	"testing"

	"shift/internal/history"
	"shift/internal/prefetch"
	"shift/internal/trace"
)

func testCfg(v Variant) Config {
	c := DefaultConfig()
	c.Variant = v
	c.HistEntries = 240 // 20 blocks at 12 records/block
	return c
}

// fakeLLC is a test double for the LLCBackend: pointers stored in a map,
// fixed latency, call counters.
type fakeLLC struct {
	pointers   map[trace.BlockAddr]uint32
	resident   map[trace.BlockAddr]bool // nil means everything resident
	reads      int
	writes     int
	updates    int
	refused    int // updates dropped because the block is not resident
	latency    int64
	lastHBRead trace.BlockAddr
}

func newFakeLLC() *fakeLLC {
	return &fakeLLC{pointers: make(map[trace.BlockAddr]uint32), latency: 20}
}

func (f *fakeLLC) PointerFor(core int, blk trace.BlockAddr) (uint32, bool) {
	p, ok := f.pointers[blk]
	return p, ok
}

func (f *fakeLLC) UpdatePointer(core int, blk trace.BlockAddr, ptr uint32) {
	f.updates++
	if f.resident != nil && !f.resident[blk] {
		f.refused++
		return
	}
	f.pointers[blk] = ptr
}

func (f *fakeLLC) ReadHistoryBlock(core int, hb trace.BlockAddr) int64 {
	f.reads++
	f.lastHBRead = hb
	return f.latency
}

func (f *fakeLLC) WriteHistoryBlock(core int, hb trace.BlockAddr) {
	f.writes++
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Variant: Dedicated, HistEntries: 0, SAB: history.DefaultSABConfig()},
		{Variant: Dedicated, HistEntries: 8, GeneratorCore: -1, SAB: history.DefaultSABConfig()},
		{Variant: Variant(9), HistEntries: 8, SAB: history.DefaultSABConfig()},
		{Variant: Dedicated, HistEntries: 8, SAB: history.SABConfig{}},
		{Variant: Dedicated, HistEntries: 8, IndexEntries: -1, SAB: history.DefaultSABConfig()},
		{Variant: Dedicated, HistEntries: 8, IndexEntries: 7, IndexAssoc: 4, SAB: history.DefaultSABConfig()},
		// Two history blocks from the last block address on.
		{Variant: Virtualized, HistEntries: 24, HBBase: trace.MaxBlockAddr, SAB: history.DefaultSABConfig()},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// One history block at the last block address fits.
	top := Config{Variant: Virtualized, HistEntries: 8, HBBase: trace.MaxBlockAddr, SAB: history.DefaultSABConfig()}
	if err := top.Validate(); err != nil {
		t.Errorf("a history in the last block address refused: %v", err)
	}
}

func TestPaperSizing(t *testing.T) {
	c := DefaultConfig()
	// Section 4.2: 12 records per 64B block; 32K records need 2,731
	// cache lines = ~171KB of LLC capacity.
	if c.recordsPerBlock() != 12 {
		t.Errorf("RecordsPerBlock = %d, want 12", c.recordsPerBlock())
	}
	if c.HistoryBlocks() != 2731 {
		t.Errorf("HistoryBlocks = %d, want 2731", c.HistoryBlocks())
	}
	kb := float64(c.HistoryFootprintBytes()) / 1024
	if kb < 170 || kb > 172 {
		t.Errorf("history footprint = %.1fKB, want ~171KB", kb)
	}
	lo, hi := c.HBRange()
	if hi-lo != trace.BlockAddr(c.HistoryBlocks()) {
		t.Error("HBRange size mismatch")
	}
}

func TestVariantString(t *testing.T) {
	if Dedicated.String() != "ZeroLat-SHIFT" || Virtualized.String() != "SHIFT" {
		t.Error("variant names do not match the paper's figures")
	}
	if Variant(7).String() == "" {
		t.Error("unknown variant should format")
	}
}

func TestVirtualizedRequiresBackend(t *testing.T) {
	if _, err := newSharedHistory(testCfg(Virtualized), 0, nil); err == nil {
		t.Error("virtualized SHIFT without backend accepted")
	}
	if _, err := newSharedHistory(testCfg(Dedicated), 0, nil); err != nil {
		t.Errorf("dedicated SHIFT rejected: %v", err)
	}
}

// replayer is core coreID's replay logic over sh, which records its
// access stream.
func replayer(sh *SharedHistory, coreID int) *Replayer {
	return sh.CorePrefetcher(coreID).(*Replayer)
}

// feed drives a block stream through a replayer as misses.
func feed(r *Replayer, blocks []trace.BlockAddr) []prefetch.Request {
	var all []prefetch.Request
	for _, b := range blocks {
		all = append(all, r.OnAccess(prefetch.Access{Block: b, Hit: false})...)
	}
	return all
}

// windows drives blocks through p, all hits or all misses, and returns
// how many of the accesses emitted a prefetch window (a non-empty list
// of requests): a stream started or advanced.
func windows(p prefetch.Prefetcher, blocks []trace.BlockAddr, hit bool) int {
	n := 0
	for _, b := range blocks {
		if len(p.OnAccess(prefetch.Access{Block: b, Hit: hit})) > 0 {
			n++
		}
	}
	return n
}

func TestSharedHistoryCrossCoreReplay(t *testing.T) {
	sh := MustNewSharedHistory(testCfg(Dedicated), 0, nil)
	gen := replayer(sh, 0)   // generator
	other := replayer(sh, 5) // pure consumer

	stream := []trace.BlockAddr{100, 101, 102, 500, 501, 900, 901, 2000}
	feed(gen, stream)
	feed(gen, []trace.BlockAddr{7000, 7001}) // flush the last region

	// The *other* core now misses on the stream head: it must replay the
	// generator's history even though it never recorded anything.
	reqs := other.OnAccess(prefetch.Access{Block: 100, Hit: false})
	if len(reqs) == 0 {
		t.Fatal("consumer core got no prefetches from shared history")
	}
	got := map[trace.BlockAddr]bool{}
	for _, r := range reqs {
		got[r.Block] = true
	}
	for _, b := range []trace.BlockAddr{101, 102, 500} {
		if !got[b] {
			t.Errorf("block %d not prefetched from shared history", b)
		}
	}
}

func TestOnlyGeneratorRecords(t *testing.T) {
	sh := MustNewSharedHistory(testCfg(Dedicated), 0, nil)
	other := replayer(sh, 3)
	feed(other, []trace.BlockAddr{100, 101, 5000, 5001, 9000})
	if n := sh.buf.WritePos(); n != 0 {
		t.Errorf("non-generator core wrote %d records", n)
	}
	gen := replayer(sh, 0)
	feed(gen, []trace.BlockAddr{100, 101, 5000, 5001, 9000})
	if n := sh.buf.WritePos(); n == 0 || n != uint64(gen.PrefetchStats().RecordsWritten) {
		t.Errorf("generator core wrote %d records, counted %d", n, gen.PrefetchStats().RecordsWritten)
	}
	if !gen.isGenerator() || other.isGenerator() {
		t.Error("IsGenerator wrong")
	}
}

func TestVirtualizedRecordingTraffic(t *testing.T) {
	llc := newFakeLLC()
	cfg := testCfg(Virtualized)
	sh := MustNewSharedHistory(cfg, 0, llc)
	gen := replayer(sh, 0)

	// Feed enough discontinuous blocks to close >24 regions (2+ CBB
	// flushes at 12 records/block).
	var stream []trace.BlockAddr
	for i := 0; i < 40; i++ {
		stream = append(stream, trace.BlockAddr(1000+i*50))
	}
	feed(gen, stream)

	written := gen.PrefetchStats().RecordsWritten
	if written < 24 {
		t.Fatalf("records written = %d", written)
	}
	// Every record sends its trigger's pointer to the LLC.
	if llc.updates != int(written) {
		t.Errorf("index updates = %d, want one per record (%d)", llc.updates, written)
	}
	wantFlushes := int(written) / cfg.recordsPerBlock()
	if llc.writes != wantFlushes {
		t.Errorf("CBB flushes = %d, want %d", llc.writes, wantFlushes)
	}
}

func TestVirtualizedReplayLatencyAndPointer(t *testing.T) {
	llc := newFakeLLC()
	cfg := testCfg(Virtualized)
	sh := MustNewSharedHistory(cfg, 0, llc)
	gen := replayer(sh, 0)
	other := replayer(sh, 7)

	stream := []trace.BlockAddr{100, 101, 102, 500, 501, 900, 901, 2000}
	feed(gen, stream)
	feed(gen, []trace.BlockAddr{7000, 7001})

	// The trigger 100's pointer should be in the LLC tags.
	if _, ok := llc.pointers[100]; !ok {
		t.Fatal("no index pointer recorded for trigger 100")
	}
	reqs := other.OnAccess(prefetch.Access{Block: 100, Hit: false})
	if len(reqs) == 0 {
		t.Fatal("no prefetches via LLC pointer")
	}
	// Prefetches must be delayed by the history-read round trip.
	for _, r := range reqs {
		if r.Delay != llc.latency {
			t.Errorf("request %v delay = %d, want %d", r.Block, r.Delay, llc.latency)
		}
	}
	if llc.reads == 0 {
		t.Error("no history block reads accounted")
	}
	// The history block address must fall in the reserved range.
	lo, hi := cfg.HBRange()
	if llc.lastHBRead < lo || llc.lastHBRead >= hi {
		t.Errorf("history read at %v outside reserved range [%v,%v)", llc.lastHBRead, lo, hi)
	}
}

func TestVirtualizedPointerLostWhenNotResident(t *testing.T) {
	llc := newFakeLLC()
	llc.resident = map[trace.BlockAddr]bool{} // nothing resident
	sh := MustNewSharedHistory(testCfg(Virtualized), 0, llc)
	gen := replayer(sh, 0)
	feed(gen, []trace.BlockAddr{100, 101, 500, 501, 900})
	if llc.refused != llc.updates || llc.refused == 0 {
		t.Errorf("refused=%d updates=%d; all updates should drop", llc.refused, llc.updates)
	}
	other := replayer(sh, 1)
	if reqs := other.OnAccess(prefetch.Access{Block: 100, Hit: false}); len(reqs) != 0 {
		t.Error("replay started without a resident pointer")
	}
}

func TestStalePointerRejected(t *testing.T) {
	llc := newFakeLLC()
	cfg := testCfg(Virtualized)
	cfg.HistEntries = 24 // wraps after 24 records
	sh := MustNewSharedHistory(cfg, 0, llc)
	gen := replayer(sh, 0)
	feed(gen, []trace.BlockAddr{100, 101, 500})
	// Overwrite the whole history.
	var churn []trace.BlockAddr
	for i := 0; i < 60; i++ {
		churn = append(churn, trace.BlockAddr(10000+i*100))
	}
	feed(gen, churn)
	other := replayer(sh, 1)
	if reqs := other.OnAccess(prefetch.Access{Block: 100, Hit: false}); len(reqs) != 0 {
		t.Error("stale pointer replayed overwritten history")
	}
}

func TestAllocOnAccessMode(t *testing.T) {
	cfg := testCfg(Dedicated)
	cfg.AllocOnAccess = true
	sh := MustNewSharedHistory(cfg, 0, nil)
	gen := replayer(sh, 0)
	stream := []trace.BlockAddr{100, 101, 500, 501, 900}
	feed(gen, stream)
	feed(gen, []trace.BlockAddr{7000, 7001})
	other := replayer(sh, 2)
	// A *hit* (not a miss) should still start replay in commonality mode.
	if n := windows(other, []trace.BlockAddr{100}, true); n != 1 {
		t.Errorf("a hit emitted %d prefetch windows, want 1 (AllocOnAccess)", n)
	}
}

func TestAdvanceCountsCoverage(t *testing.T) {
	sh := MustNewSharedHistory(testCfg(Dedicated), 0, nil)
	gen := replayer(sh, 0)
	stream := []trace.BlockAddr{100, 101, 102, 500, 501, 900, 901, 2000}
	for i := 0; i < 3; i++ {
		feed(gen, stream)
	}
	other := replayer(sh, 4)
	feed(other, stream) // first pass allocates on the head miss
	st := other.PrefetchStats()
	if st.CoveredMisses < int64(len(stream))-3 {
		t.Errorf("covered %d of %d misses", st.CoveredMisses, len(stream))
	}
	if st.MissCoverage() <= 0.5 {
		t.Errorf("MissCoverage = %v", st.MissCoverage())
	}
}

func TestGroups(t *testing.T) {
	base := testCfg(Dedicated)
	groups := []Group{
		{Name: "A", Cores: []int{0, 1, 2, 3}},
		{Name: "B", Cores: []int{4, 5, 6, 7}},
	}
	shs, err := NewGroups(base, groups, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(shs) != 2 {
		t.Fatalf("got %d histories", len(shs))
	}
	if shs[0].Config().GeneratorCore != 0 || shs[1].Config().GeneratorCore != 4 {
		t.Error("generator cores not the first core of each group")
	}
	// HB ranges must be disjoint.
	lo0, hi0 := shs[0].Config().HBRange()
	lo1, hi1 := shs[1].Config().HBRange()
	if hi0 > lo1 && hi1 > lo0 {
		t.Errorf("HB ranges overlap: [%v,%v) and [%v,%v)", lo0, hi0, lo1, hi1)
	}
}

func TestGroupsValidation(t *testing.T) {
	base := testCfg(Dedicated)
	if _, err := NewGroups(base, nil, 0, nil); err == nil {
		t.Error("empty groups accepted")
	}
	if _, err := NewGroups(base, []Group{{Name: "A"}}, 0, nil); err == nil {
		t.Error("group without cores accepted")
	}
	dup := []Group{{Name: "A", Cores: []int{1}}, {Name: "B", Cores: []int{1}}}
	if _, err := NewGroups(base, dup, 0, nil); err == nil {
		t.Error("duplicate core accepted")
	}
}

func TestGroupIsolation(t *testing.T) {
	// Streams recorded in group A's history must not be replayable from
	// group B's history.
	base := testCfg(Dedicated)
	shs, err := NewGroups(base, []Group{
		{Name: "A", Cores: []int{0, 1}},
		{Name: "B", Cores: []int{2, 3}},
	}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	genA := replayer(shs[0], 0)
	stream := []trace.BlockAddr{100, 101, 500, 501, 900}
	feed(genA, stream)
	feed(genA, []trace.BlockAddr{7000, 7001})

	coreB := replayer(shs[1], 2)
	if reqs := coreB.OnAccess(prefetch.Access{Block: 100, Hit: false}); len(reqs) != 0 {
		t.Error("group B replayed group A's history")
	}
}

// TestForeignPointerRejected: virtualized groups share the LLC's one
// pointer per block, so group B can find a pointer group A set. It is a
// position in A's history, and B must not replay its own history from it.
func TestForeignPointerRejected(t *testing.T) {
	llc := newFakeLLC()
	shs, err := NewGroups(testCfg(Virtualized), []Group{
		{Name: "A", Cores: []int{0, 1}},
		{Name: "B", Cores: []int{2, 3}},
	}, 0, llc)
	if err != nil {
		t.Fatal(err)
	}
	// Both histories record as many regions, so A's pointer is a valid
	// position in B's history too.
	feed(replayer(shs[0], 0), []trace.BlockAddr{100, 101, 500, 501, 900, 7000, 7001})
	feed(replayer(shs[1], 2), []trace.BlockAddr{3000, 3001, 3500, 3501, 3900, 8000, 8001})
	if _, ok := llc.pointers[100]; !ok {
		t.Fatal("no index pointer recorded for A's trigger 100")
	}
	// B's miss on the block issues no prefetch, A's does: the same
	// pointer replays A's history and not B's.
	if reqs := replayer(shs[1], 3).OnAccess(prefetch.Access{Block: 100, Hit: false}); len(reqs) != 0 {
		t.Errorf("group B replayed its own history from A's pointer: %v", reqs)
	}
	if reqs := replayer(shs[0], 1).OnAccess(prefetch.Access{Block: 100, Hit: false}); len(reqs) == 0 {
		t.Error("group A no longer replays from its own pointer")
	}
}

func TestMustNewSharedHistoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewSharedHistory should panic")
		}
	}()
	MustNewSharedHistory(Config{}, 0, nil)
}

// Test-only operations: only this package's tests call these, so they
// live in a test file rather than in the product.

// MustNewSharedHistory panics on config errors.
func MustNewSharedHistory(cfg Config, writes int, backend LLCBackend) *SharedHistory {
	sh, err := newSharedHistory(cfg, writes, backend)
	if err != nil {
		panic(err)
	}
	return sh
}
