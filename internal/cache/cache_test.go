package cache

import (
	"runtime"
	"testing"
	"testing/quick"

	"shift/internal/trace"
)

func tiny() Config {
	return Config{SizeBytes: 4 * 64 * 2, Assoc: 2, BlockBytes: 64} // 4 sets, 2 ways
}

func TestConfigValidate(t *testing.T) {
	if err := tiny().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{SizeBytes: 0, Assoc: 2, BlockBytes: 64},
		{SizeBytes: 1024, Assoc: 0, BlockBytes: 64},
		{SizeBytes: 1024, Assoc: 2, BlockBytes: 60},
		{SizeBytes: 1000, Assoc: 2, BlockBytes: 64},
		{SizeBytes: 3 * 2 * 64, Assoc: 2, BlockBytes: 64}, // 3 sets
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestTableIGeometries(t *testing.T) {
	l1i := Config{SizeBytes: 32 * 1024, Assoc: 2, BlockBytes: 64}
	if err := l1i.Validate(); err != nil {
		t.Errorf("L1-I config invalid: %v", err)
	}
	if l1i.Sets() != 256 {
		t.Errorf("L1-I sets = %d, want 256", l1i.Sets())
	}
	llcBank := Config{SizeBytes: 512 * 1024, Assoc: 16, BlockBytes: 64, TagPointers: true}
	if err := llcBank.Validate(); err != nil {
		t.Errorf("LLC bank config invalid: %v", err)
	}
	if llcBank.Sets() != 512 {
		t.Errorf("LLC bank sets = %d, want 512", llcBank.Sets())
	}
}

func TestHitMiss(t *testing.T) {
	c := MustNew(tiny())
	if hit, _ := c.Lookup(100); hit {
		t.Fatal("hit in empty cache")
	}
	c.Insert(100, false)
	if hit, wasPf := c.Lookup(100); !hit || wasPf {
		t.Fatalf("Lookup(100) = %v, %v; want hit, not prefetch", hit, wasPf)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(tiny()) // 4 sets, 2 ways; blocks with same low 2 bits collide
	// Set 0: blocks 0, 4, 8.
	c.Insert(0, false)
	c.Insert(4, false)
	c.Lookup(0) // make 0 MRU
	ev, evicted := c.Insert(8, false)
	if !evicted || ev.Block != 4 {
		t.Fatalf("evicted %+v (%v), want block 4", ev, evicted)
	}
	if !c.Contains(0) || !c.Contains(8) || c.Contains(4) {
		t.Error("wrong residency after eviction")
	}
}

func TestInsertExistingRefreshes(t *testing.T) {
	c := MustNew(tiny())
	c.Insert(0, false)
	c.Insert(4, false)
	c.Insert(0, false) // refresh 0 → 4 becomes LRU
	ev, evicted := c.Insert(8, false)
	if !evicted || ev.Block != 4 {
		t.Fatalf("evicted %+v, want 4", ev)
	}
}

// TestInsertRefreshClearsStalePrefetchBit pins down the demand re-fill
// semantics: re-inserting a resident prefetched line as a demand fill
// (prefetch=false) clears the prefetched bit, so the line neither counts
// a later demand hit as prefetch-covered nor counts its eviction as a
// discard. A prefetch re-fill (prefetch=true) leaves the bit alone.
func TestInsertRefreshClearsStalePrefetchBit(t *testing.T) {
	c := MustNew(tiny())
	c.Insert(0, true)  // prefetched, never referenced
	c.Insert(0, false) // demand fill of the same line supersedes it
	if hit, wasPf := c.Lookup(0); !hit || wasPf {
		t.Fatalf("Lookup(0) = %v,%v; demand re-fill must clear the prefetched bit", hit, wasPf)
	}
	if c.Stats().PrefetchHits != 0 {
		t.Errorf("PrefetchHits = %d, want 0", c.Stats().PrefetchHits)
	}
	// Eviction after a demand re-fill must not count a discard.
	c2 := MustNew(tiny())
	c2.Insert(0, true)
	c2.Insert(0, false)
	c2.Insert(4, false)
	if ev, evicted := c2.Insert(8, false); !evicted || ev.PrefetchUnused {
		t.Errorf("evicted %+v (%v); demand-refilled line flagged as unused prefetch", ev, evicted)
	}
	if c2.Stats().PrefetchDiscards != 0 {
		t.Errorf("PrefetchDiscards = %d, want 0", c2.Stats().PrefetchDiscards)
	}
	// Prefetch re-fill keeps the bit: the first demand use still reports
	// prefetch coverage.
	c3 := MustNew(tiny())
	c3.Insert(0, true)
	c3.Insert(0, true)
	if _, wasPf := c3.Lookup(0); !wasPf {
		t.Error("prefetch re-fill must keep the prefetched bit")
	}
}

// TestInsertRefreshHonorsPinRange pins down the other refresh-path fix:
// a re-fill re-applies the pin check, so a line inserted before the pin
// range was configured becomes non-evictable on its next fill.
func TestInsertRefreshHonorsPinRange(t *testing.T) {
	c := MustNew(tiny())
	c.Insert(0, false) // inserted before the range exists: not pinned
	c.PinRange(0, 1)
	c.Insert(0, false) // refresh inside the range: now pinned
	if got := c.PinnedCount(); got != 1 {
		t.Fatalf("PinnedCount = %d, want 1 after refresh inside pin range", got)
	}
	// Thrash set 0: the refreshed line must survive.
	for b := trace.BlockAddr(4); b < 400; b += 4 {
		c.Insert(b, false)
	}
	if !c.Contains(0) {
		t.Fatal("refreshed pinned line evicted")
	}
	if err := c.CheckLRUInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchAccounting(t *testing.T) {
	c := MustNew(tiny())
	c.Insert(0, true)
	if hit, wasPf := c.Lookup(0); !hit || !wasPf {
		t.Fatal("first demand hit on prefetched line should report wasPrefetch")
	}
	if _, wasPf := c.Lookup(0); wasPf {
		t.Fatal("second hit should not report wasPrefetch")
	}
	st := c.Stats()
	if st.PrefetchHits != 1 || st.PrefetchInserted != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPrefetchDiscard(t *testing.T) {
	c := MustNew(tiny())
	c.Insert(0, true) // prefetched, never referenced
	c.Insert(4, false)
	ev, evicted := c.Insert(8, false) // evicts 0 (LRU)
	if !evicted || ev.Block != 0 || !ev.PrefetchUnused {
		t.Fatalf("evicted %+v, want unused prefetch of block 0", ev)
	}
	if c.Stats().PrefetchDiscards != 1 {
		t.Errorf("PrefetchDiscards = %d, want 1", c.Stats().PrefetchDiscards)
	}
	// A referenced prefetch must not count as a discard.
	c2 := MustNew(tiny())
	c2.Insert(0, true)
	c2.Lookup(0)
	c2.Insert(4, false)
	if ev, _ := c2.Insert(8, false); ev.PrefetchUnused {
		t.Error("referenced prefetch flagged as unused")
	}
}

func TestPinning(t *testing.T) {
	c := MustNew(tiny())
	c.PinRange(0, 16)
	c.Insert(0, false) // pinned
	c.Insert(4, false) // pinned
	// Set 0 is now fully pinned; inserting another set-0 block must fail
	// to evict anything and not insert.
	ev, evicted := c.Insert(8, false)
	if evicted {
		t.Fatalf("evicted pinned line: %+v", ev)
	}
	if c.Contains(8) {
		t.Error("insert into fully pinned set should bypass")
	}
	if c.PinnedCount() != 2 {
		t.Errorf("PinnedCount = %d, want 2", c.PinnedCount())
	}
	if err := c.CheckLRUInvariant(); err != nil {
		t.Error(err)
	}
}

func TestPinnedSurvivesThrash(t *testing.T) {
	c := MustNew(Config{SizeBytes: 8 * 64 * 4, Assoc: 4, BlockBytes: 64}) // 8 sets
	c.PinRange(0, 1)
	c.Insert(0, false)
	for b := trace.BlockAddr(8); b < 8*100; b += 8 {
		c.Insert(b, false) // hammer set 0
	}
	if !c.Contains(0) {
		t.Fatal("pinned block evicted")
	}
}

func TestTagPointers(t *testing.T) {
	cfg := tiny()
	cfg.TagPointers = true
	c := MustNew(cfg)
	c.Insert(5, false)
	if ok := c.SetPointer(5, 1234); !ok {
		t.Fatal("SetPointer on resident block failed")
	}
	if ptr, ok := c.Pointer(5); !ok || ptr != 1234 {
		t.Fatalf("Pointer = %d, %v", ptr, ok)
	}
	if ok := c.SetPointer(99, 1); ok {
		t.Error("SetPointer on absent block succeeded")
	}
	if _, ok := c.Pointer(99); ok {
		t.Error("Pointer on absent block succeeded")
	}
	// Pointer must die with the line.
	c.Insert(1, false)
	c.Insert(9, false)
	c.Insert(13, false) // evicts 5 or 1 in set 1... ensure 5 evicted by LRU
	// set index = block & 3. Blocks 5, 1, 9, 13 => sets 1,1,1,1; assoc 2.
	if c.Contains(5) {
		// then 1 was evicted; touch to force 5 out
		c.Insert(17, false)
	}
	c.Insert(5, false) // re-insert: pointer must be reset
	if _, ok := c.Pointer(5); ok {
		t.Error("pointer survived eviction + reinsert")
	}
}

func TestTagPointersDisabled(t *testing.T) {
	c := MustNew(tiny())
	c.Insert(5, false)
	if c.SetPointer(5, 1) {
		t.Error("SetPointer succeeded with TagPointers disabled")
	}
	if _, ok := c.Pointer(5); ok {
		t.Error("Pointer succeeded with TagPointers disabled")
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew(tiny())
	c.Insert(7, false)
	if !c.Invalidate(7) {
		t.Fatal("Invalidate on resident block returned false")
	}
	if c.Contains(7) {
		t.Fatal("block present after Invalidate")
	}
	if c.Invalidate(7) {
		t.Error("Invalidate on absent block returned true")
	}
}

func TestValidCount(t *testing.T) {
	c := MustNew(tiny())
	for b := trace.BlockAddr(0); b < 100; b++ {
		c.Insert(b, false)
	}
	if got := c.ValidCount(); got != 8 { // capacity: 4 sets * 2 ways
		t.Errorf("ValidCount = %d, want 8", got)
	}
}

func TestLRUInvariantProperty(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		c := MustNew(Config{SizeBytes: 8 * 4 * 64, Assoc: 4, BlockBytes: 64})
		c.PinRange(0, 4)
		rng := trace.NewRNG(seed)
		for _, op := range ops {
			b := trace.BlockAddr(op % 256)
			switch rng.Intn(3) {
			case 0:
				c.Lookup(b)
			case 1:
				c.Insert(b, rng.Bool(0.5))
			case 2:
				c.Invalidate(b)
			}
			if err := c.CheckLRUInvariant(); err != nil {
				return false
			}
			if c.ValidCount() > 32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on bad config")
		}
	}()
	MustNew(Config{})
}

// TestHostBytesPerModelledLine is the footprint gate of the cache
// layouts: what the Table I caches cost the host per line they model, on
// fresh memory (on geometries no other test releases: a 128-byte block
// for the banks, which they do not read, and 126 entries for the buffer,
// whose index is sized as for 128). An unlisted Cache is a
// 4-byte compressed tag and an 8-byte state word per way, plus 4 for the
// tag-extension pointer where configured, and one dirty bit per set; the
// listed one (links, full tag and state word per way, four 16-byte index
// slots per way) must not cost more than it did. The simulator's own
// structures: an LLCBank is its 4-byte stack word per way, 8 with the
// pointers, and a dirty bit per set; a PrefetchBuffer four index slots of
// an 8-byte key and a 2-byte line per line, the line's key and two 2-byte
// links — 52 bytes, at most 56. Each reading is the least of three
// constructions.
func TestHostBytesPerModelledLine(t *testing.T) {
	plain := recycleConfigs()["llcbank"]
	plain.TagPointers = false
	bank := Config{SizeBytes: 1 << 20, Assoc: 16, BlockBytes: 128, IndexShift: 4}
	bankPointers := bank
	bankPointers.TagPointers = true
	for _, tc := range []struct {
		name    string
		cfg     Config
		build   func(Config)
		perLine int
	}{
		{"Cache l1i", recycleConfigs()["l1i"], func(c Config) { alloc(c) }, 12},
		{"Cache llcbank", plain, func(c Config) { alloc(c) }, 12},
		{"Cache llcbank+pointers", recycleConfigs()["llcbank"], func(c Config) { alloc(c) }, 16},
		{"Cache pbuf", recycleConfigs()["pbuf"], func(c Config) { alloc(c) }, 12 + 8 + 8 + 4*16},
		{"LLCBank", bank, func(c Config) { NewLLCBank(c) }, 4},
		{"LLCBank+pointers", bankPointers, func(c Config) { NewLLCBank(c) }, 8},
		{"PrefetchBuffer", Config{SizeBytes: 126 * 64, Assoc: 126, BlockBytes: 64}, func(c Config) { NewPrefetchBuffer(c.Assoc) }, 56},
	} {
		// TotalAlloc is process-wide, so whatever else allocates meanwhile
		// can only add to a reading: the least of three constructions
		// (each on fresh memory, since none is released) is the
		// structure's own.
		got := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tc.build(tc.cfg)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		lines := tc.cfg.Sets() * tc.cfg.Assoc
		// 512: the struct and the smallest arrays, each rounded up to its
		// allocation size class.
		limit := uint64(lines*tc.perLine + tc.cfg.Sets()/8 + 512)
		t.Logf("%s: %d lines, %d B, %.2f B/line", tc.name, lines, got, float64(got)/float64(lines))
		if got > limit {
			t.Errorf("%s: %d lines allocate %d B, limit %d (%d B/line)", tc.name, lines, got, limit, tc.perLine)
		}
	}
}
