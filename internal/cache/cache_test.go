package cache

import (
	"fmt"
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
	if l1i.sets() != 256 {
		t.Errorf("L1-I sets = %d, want 256", l1i.sets())
	}
	llcBank := Config{SizeBytes: 512 * 1024, Assoc: 16, BlockBytes: 64, TagPointers: true}
	if err := llcBank.Validate(); err != nil {
		t.Errorf("LLC bank config invalid: %v", err)
	}
	if llcBank.sets() != 512 {
		t.Errorf("LLC bank sets = %d, want 512", llcBank.sets())
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
		lines := tc.cfg.sets() * tc.cfg.Assoc
		// 512: the struct and the smallest arrays, each rounded up to its
		// allocation size class.
		limit := uint64(lines*tc.perLine + tc.cfg.sets()/8 + 512)
		t.Logf("%s: %d lines, %d B, %.2f B/line", tc.name, lines, got, float64(got)/float64(lines))
		if got > limit {
			t.Errorf("%s: %d lines allocate %d B, limit %d (%d B/line)", tc.name, lines, got, limit, tc.perLine)
		}
	}
}

// The operations below are Cache's test-only surface: the differential
// and property tests drive Cache through them against Reference.
// Outside tests Cache is built by New and driven by LookupInsert and
// CopyStateFrom alone.

// MustNew is New that panics on config errors; for tests and fixed configs.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Release hands c's tables back for a later New of the same geometry.
// The caller must hold the only reference to c and must not use it
// again. Releasing is optional: an unreleased cache is simply collected.
func (c *Cache) Release() { freeCaches.Put(c.cfg, c) }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// PinRange marks [lo, hi) as non-evictable. Blocks in the range are pinned
// when inserted. Only one range is supported (one history buffer per LLC
// bank); consolidation uses multiple caches' worth of ranges via PinRanges
// in the controller layer.
func (c *Cache) PinRange(lo, hi trace.BlockAddr) {
	c.pinLo, c.pinHi, c.pinEnabled = lo, hi, true
}

// Contains reports whether b is present, without touching LRU or stats.
func (c *Cache) Contains(b trace.BlockAddr) bool {
	if c.idx != nil {
		return c.idxFind(uint64(b)) != noLine
	}
	li := c.scan(b)
	if li != noLine {
		c.mtfAdjust(li)
		return true
	}
	return false
}

// Lookup performs a demand access to b. It returns hit=true if present,
// and wasPrefetch=true if the line was filled by a prefetch and this is
// its first demand reference (a covered miss in Figure 7's terms).
func (c *Cache) Lookup(b trace.BlockAddr) (hit, wasPrefetch bool) {
	var li int32
	if c.idx != nil {
		li = c.idxFind(uint64(b))
	} else {
		// Inlined probe: scan and mtfAdjust stay within the compiler's
		// inlining budget, so the common case costs no function calls.
		if li = c.scan(b); li != noLine {
			li = c.mtfAdjust(li)
		}
	}
	if li == noLine {
		c.stats.Misses++
		return false, false
	}
	c.stats.Hits++
	wasPrefetch = c.demandTouch(c.setIndex(b), li)
	return true, wasPrefetch
}

// Extract performs a demand access to b that also removes the line on a
// hit — the prefetch-buffer drain path, where a buffered block moves into
// the L1-I on its first demand use. Statistics are identical to Lookup
// followed by Invalidate.
func (c *Cache) Extract(b trace.BlockAddr) (hit, wasPrefetch bool) {
	var li int32
	if c.idx != nil {
		li = c.idxFind(uint64(b))
	} else {
		// Inlined probe: scan and mtfAdjust stay within the compiler's
		// inlining budget, so the common case costs no function calls.
		if li = c.scan(b); li != noLine {
			li = c.mtfAdjust(li)
		}
	}
	if li == noLine {
		c.stats.Misses++
		return false, false
	}
	c.lruClock++ // Lookup would have stamped the line before removal
	c.stats.Hits++
	if c.vlru[li]&vlruPrefetched != 0 {
		c.stats.PrefetchHits++
		wasPrefetch = true
	}
	c.remove(c.setIndex(b), li)
	return true, wasPrefetch
}

// Insert fills b. prefetch marks the line as prefetcher-installed.
// It returns the displaced line, if any.
//
// Inserting a block that is already present refreshes its recency and
// returns no eviction. A demand re-fill (prefetch=false) of a resident
// prefetched line additionally clears the prefetched bit — the demand
// fill supersedes the speculative one, so the line must not later count
// as a prefetch hit or discard — and both re-fill flavors re-apply the
// pin check, so a line inserted before PinRange was configured becomes
// pinned on its next fill inside the range.
func (c *Cache) Insert(b trace.BlockAddr, prefetch bool) (ev Evicted, evicted bool) {
	var li int32
	if c.idx != nil {
		li = c.idxFind(uint64(b))
	} else {
		// Inlined probe: scan and mtfAdjust stay within the compiler's
		// inlining budget, so the common case costs no function calls.
		if li = c.scan(b); li != noLine {
			li = c.mtfAdjust(li)
		}
	}
	c.lruClock++
	if li != noLine {
		si := c.setIndex(b)
		fl := c.vlru[li] & vlruFlags
		if !prefetch {
			fl &^= vlruPrefetched
		}
		if c.inPinRange(b) {
			fl |= vlruPinned
		} else {
			fl &^= vlruPinned
		}
		c.vlru[li] = c.lruClock<<vlruStampShift | fl
		if c.listed && c.head[si] != li {
			c.listDetach(si, li)
			c.listPushFront(si, li)
		}
		return Evicted{}, false
	}
	return c.fill(b, prefetch)
}

// Invalidate removes b if present, returning whether it was present.
func (c *Cache) Invalidate(b trace.BlockAddr) bool {
	li := c.find(b)
	if li == noLine {
		return false
	}
	c.remove(c.setIndex(b), li)
	return true
}

// SetPointer writes the tag-extension index pointer of b if b is present.
// It returns false if b is absent (the paper: the index update is dropped
// when the trigger block is not LLC-resident).
func (c *Cache) SetPointer(b trace.BlockAddr, ptr uint32) bool {
	if c.ptrs == nil {
		return false
	}
	li := c.find(b)
	if li == noLine {
		return false
	}
	c.ptrs[li] = ptr
	return true
}

// Pointer reads the tag-extension index pointer of b. ok is false if b is
// absent or has no pointer set.
func (c *Cache) Pointer(b trace.BlockAddr) (ptr uint32, ok bool) {
	if c.ptrs == nil {
		return noPointer, false
	}
	li := c.find(b)
	if li == noLine || c.ptrs[li] == noPointer {
		return noPointer, false
	}
	return c.ptrs[li], true
}

// PinnedCount returns the number of currently pinned, valid lines.
func (c *Cache) PinnedCount() int {
	n := 0
	for _, v := range c.vlru {
		if v != 0 && v&vlruPinned != 0 {
			n++
		}
	}
	return n
}

// ValidCount returns the number of valid lines.
func (c *Cache) ValidCount() int {
	n := 0
	for _, v := range c.vlru {
		if v != 0 {
			n++
		}
	}
	return n
}

// SetLRUOrder returns the valid blocks of set si ordered MRU→LRU. It
// allocates and is meant for tests and debugging, not the hot path.
func (c *Cache) SetLRUOrder(si int) []trace.BlockAddr {
	var out []trace.BlockAddr
	if c.listed {
		for li := c.head[si]; li != noLine; li = c.lines[li].next {
			out = append(out, trace.BlockAddr(c.tags[li]))
		}
		return out
	}
	// Unlisted: order by descending packed stamp (whole-word comparison
	// is stamp order; stamps are unique).
	base := int32(si) * c.assoc
	taken := make([]bool, c.assoc)
	for {
		best, bestW := uint64(0), int32(noLine)
		for w := int32(0); w < c.assoc; w++ {
			li := base + w
			if v := c.vlru[li]; v != 0 && !taken[w] && (bestW == noLine || v > best) {
				best, bestW = v, w
			}
		}
		if bestW == noLine {
			return out
		}
		taken[bestW] = true
		out = append(out, c.blockAt(uint64(si), base+bestW))
	}
}

// CheckLRUInvariant verifies internal consistency: each set's recency
// list covers exactly its valid lines in strictly decreasing stamp order,
// free lists cover exactly the invalid ways, pinned bits appear only
// inside the pin range, and the hash index (when present) maps exactly
// the valid tags. It is used by property tests.
func (c *Cache) CheckLRUInvariant() error {
	nsets := int(c.setMask) + 1
	for si := 0; si < nsets; si++ {
		base := int32(si) * c.assoc
		valid := 0
		seenStamp := make(map[uint64]bool, c.assoc)
		for li := base; li < base+c.assoc; li++ {
			v := c.vlru[li]
			tagged := c.listed && c.tags[li] != invalidTag || !c.listed && c.scanTags[li] != invalidTag32
			if (v != 0) != tagged {
				return fmt.Errorf("cache: set %d line %d tag/valid mismatch", si, li-base)
			}
			if v == 0 {
				continue
			}
			b := c.blockAt(uint64(si), li)
			if c.setIndex(b) != uint64(si) || !c.listed && c.compressTag(b) != c.scanTags[li] {
				return fmt.Errorf("cache: set %d line %d holds block %d of another set", si, li-base, b)
			}
			valid++
			stamp := v >> vlruStampShift
			if stamp == 0 || seenStamp[stamp] {
				return fmt.Errorf("cache: set %d has zero or duplicate LRU stamp %d", si, stamp)
			}
			seenStamp[stamp] = true
			if v&vlruPinned != 0 && !c.inPinRange(b) {
				return fmt.Errorf("cache: set %d line %d pinned outside pin range", si, li-base)
			}
		}
		if !c.listed {
			continue
		}
		// Walk the recency list: strictly decreasing stamps, all valid.
		seen := 0
		var prevStamp uint64
		for li := c.head[si]; li != noLine; li = c.lines[li].next {
			v := c.vlru[li]
			if v == 0 {
				return fmt.Errorf("cache: set %d recency list holds invalid line", si)
			}
			if stamp := v >> vlruStampShift; seen > 0 && stamp >= prevStamp {
				return fmt.Errorf("cache: set %d recency list out of order (%d >= %d)", si, stamp, prevStamp)
			} else {
				prevStamp = stamp
			}
			seen++
			if seen > int(c.assoc) {
				return fmt.Errorf("cache: set %d recency list cycles", si)
			}
		}
		if seen != valid {
			return fmt.Errorf("cache: set %d recency list covers %d of %d valid lines", si, seen, valid)
		}
		// Walk the free list: all invalid.
		freeN := 0
		for li := c.free[si]; li != noLine; li = c.lines[li].next {
			if c.vlru[li] != 0 {
				return fmt.Errorf("cache: set %d free list holds valid line", si)
			}
			freeN++
			if freeN > int(c.assoc) {
				return fmt.Errorf("cache: set %d free list cycles", si)
			}
		}
		if freeN != int(c.assoc)-valid {
			return fmt.Errorf("cache: set %d free list covers %d of %d invalid ways", si, freeN, int(c.assoc)-valid)
		}
	}
	if c.idx != nil {
		indexed := 0
		for i := range c.idx {
			li := c.idx[i].li
			if li == noLine {
				continue
			}
			indexed++
			if c.vlru[li] == 0 || c.tags[li] != c.idx[i].key {
				return fmt.Errorf("cache: index slot %d stale (line %d)", i, li)
			}
		}
		if indexed != c.ValidCount() {
			return fmt.Errorf("cache: index holds %d entries for %d valid lines", indexed, c.ValidCount())
		}
	}
	return nil
}

// Fingerprint returns a canonical hash of the cache's semantic content:
// every valid line's block address, flag bits, recency stamp, and index
// pointer, plus the replacement clock. Lines combine commutatively
// within their set, so the physically unobservable way permutation
// (move-to-front transposition; see promote) does not affect the value:
// two caches with equal fingerprints respond identically to any
// subsequent operation sequence. Used by the sampled-execution
// differential tests to prove functional and detailed stepping leave
// identical instruction-cache state.
func (c *Cache) Fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	nsets := int(c.setMask) + 1
	for si := 0; si < nsets; si++ {
		base := si * int(c.assoc)
		var setH uint64
		for w := 0; w < int(c.assoc); w++ {
			li := base + w
			if c.vlru[li] == 0 {
				continue
			}
			ptr := noPointer
			if c.ptrs != nil {
				ptr = c.ptrs[li]
			}
			setH += fpMix(uint64(c.blockAt(uint64(si), int32(li))) ^ fpMix(c.vlru[li]^fpMix(uint64(ptr))))
		}
		h = (h ^ setH) * prime
	}
	return (h ^ c.lruClock) * prime
}

// remove invalidates line li of set si: clear the metadata and, in a
// listed cache, detach the line from the index and the recency list and
// push the way onto the free list.
func (c *Cache) remove(si uint64, li int32) {
	if !c.listed {
		c.clearWay(li)
		return
	}
	c.idxDelete(c.tags[li])
	c.tags[li] = invalidTag
	c.vlru[li] = 0
	c.listDetach(si, li)
	c.lines[li] = line{prev: noLine, next: c.free[si]}
	c.free[si] = li
}

// find returns the line index holding b, or noLine. The probe helpers
// below (scan, idxFind, promote) are written to stay within the
// compiler's inlining budget so the hot operations pay no call overhead
// for the lookup itself; find is the wrapper for the colder entry
// points.
func (c *Cache) find(b trace.BlockAddr) int32 {
	if c.idx != nil {
		return c.idxFind(uint64(b))
	}
	li := c.scan(b)
	if li != noLine {
		li = c.mtfAdjust(li)
	}
	return li
}
