// Package cache implements the caches of the simulated CMP (Table I):
// the per-core 32KB 2-way L1 instruction caches, the per-core 128-entry
// prefetch buffers, the 16-bank, 16-way NUCA LLC, and the MSHR files.
//
// Each structure the simulator steps is a type built for the only
// operations the simulator performs on it, and stores each fact once:
//
//   - ICache, the L1-I: demand accesses that fill on a miss. A tag and a
//     recency stamp per way, ways that never move (a batch follower
//     keeps the tags alone, as a replica told which way each miss took).
//   - LLCBank, one LLC bank: demand fills, the pinned address range and
//     the per-line index pointer virtualized SHIFT needs (paper Section
//     4.2). Recency is positional — each set is an MRU→LRU stack of
//     block words — which is exactly stamp-LRU with pins because the LLC
//     never invalidates a line.
//   - PrefetchBuffer: blocks enter once, after a probe missed, and leave
//     on their first demand use, so nothing refreshes their recency and
//     LRU is insertion order — a hash index and a FIFO.
//   - MSHRs: in-flight fills for the timing model.
//
// Cache is the general set-associative LRU cache the three replaced
// (prefetched/referenced/pinned flags, tag pointers, invalidation,
// statistics and victims, state copies). The simulator no longer builds
// one; it stays for the repository benchmark's cache rows (New,
// LookupInsert, CopyStateFrom) until those time the structures above,
// and the rest of its operations live with its tests. Reference
// (reference_test.go) is the naive linear-scan specification:
// differential tests drive Cache, ICache, LLCBank and PrefetchBuffer
// against it with randomized operation sequences and require identical
// observable behavior.
//
// # Cache's layout
//
// Cache comes in two layouts, chosen by associativity:
//
//   - very-high-associativity caches carry a block→line hash index (open
//     addressing, linear probing, backward-shift deletion) plus
//     intrusive recency/free lists, so probes, LRU victim selection, and
//     fills are all O(1);
//   - lower-associativity caches are two parallel arrays and nothing
//     else: a dense compressed tag array — 4 bytes per way — scanned with
//     move-to-front transposition, and a packed per-way word (validity +
//     flags + stamp in 8 bytes) that hits update and victim scans read.
//     That is 12 host bytes per modelled line (16 with the tag-extension
//     pointer), and the full block address of a way is rebuilt from its
//     compressed tag and set index where it is needed.
package cache

import (
	"fmt"

	"shift/internal/trace"
)

// noPointer is the tag-extension value meaning "no index pointer".
const noPointer uint32 = 0xFFFFFFFF

// indexMinAssoc is the associativity at which the block→line hash index
// (and the recency/free lists) pay for themselves. Below it a linear
// scan of the set's dense compressed tag array is faster than a hash
// probe: the 2-way L1 scan is two adjacent 4-byte loads, and a whole
// 16-way LLC bank set's tags fit one cache line, which beats a
// random-access probe of a bank-sized hash table. The 128-way prefetch
// buffer, probed up to three times per simulated record, is where the
// index wins decisively (measured ~1.9x on simulator throughput).
const indexMinAssoc = 24

// noLine marks "no line" in list links and index slots.
const noLine int32 = -1

// invalidTag marks an invalid way in a listed cache's tags array. Block
// addresses are 34 bits (trace.BlockAddrBits), so all-ones never
// collides with a real tag.
const invalidTag = ^uint64(0)

// invalidTag32 is the compressed-scan-tag equivalent; compressed tags
// are at most 31 bits (enforced in alloc), so all-ones is never real.
const invalidTag32 = ^uint32(0)

// Config sizes a cache.
type Config struct {
	// SizeBytes is the total data capacity.
	SizeBytes int
	// Assoc is the set associativity.
	Assoc int
	// BlockBytes is the line size (64 in all Table I caches).
	BlockBytes int
	// TagPointers enables the per-line index-pointer tag extension
	// (LLC only, for virtualized SHIFT).
	TagPointers bool
	// IndexShift drops this many low block-address bits before set
	// indexing. Banked caches whose bank is selected by the low bits
	// (block mod #banks) must set it to log2(#banks), otherwise only
	// 1/#banks of each bank's sets are reachable.
	IndexShift uint
}

// Validate reports the first problem with c, or nil.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0:
		return fmt.Errorf("cache: SizeBytes %d <= 0", c.SizeBytes)
	case c.Assoc <= 0:
		return fmt.Errorf("cache: Assoc %d <= 0", c.Assoc)
	case c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("cache: BlockBytes %d not a positive power of two", c.BlockBytes)
	case c.SizeBytes%(c.Assoc*c.BlockBytes) != 0:
		return fmt.Errorf("cache: SizeBytes %d not divisible by Assoc*BlockBytes", c.SizeBytes)
	}
	sets := c.SizeBytes / (c.Assoc * c.BlockBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// sets returns the number of sets implied by the config.
func (c Config) sets() int { return c.SizeBytes / (c.Assoc * c.BlockBytes) }

// line links one way of a listed cache into its set's recency list
// while valid (prev = toward MRU, next = toward LRU); while invalid,
// next links the set's free list.
type line struct {
	prev, next int32
}

// vlru word layout: 0 means invalid; valid lines hold
// stamp<<vlruStampShift | flags. Stamps start at 1, so a valid word is
// always non-zero, and comparing whole words orders lines by recency
// (stamps are unique, so the flag bits never decide a comparison).
const (
	vlruPrefetched = 1 << 0 // installed by a prefetcher, no demand use yet
	vlruReferenced = 1 << 1 // demand-referenced since fill
	vlruPinned     = 1 << 2 // never chosen as a victim
	vlruFlags      = vlruPrefetched | vlruReferenced | vlruPinned
	vlruStampShift = 3
)

// Stats counts cache events.
type Stats struct {
	Hits             int64 // demand hits
	Misses           int64 // demand misses
	PrefetchHits     int64 // demand hits on lines brought in by prefetch
	Inserts          int64
	Evictions        int64
	PrefetchInserted int64
	// PrefetchDiscards counts prefetched lines evicted before any demand
	// reference — the paper's "discarded before used by the core".
	PrefetchDiscards int64
}

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	cfg Config
	// vlru packs each way's state (validity, flag bits, recency stamp —
	// see the vlru* constants) into one word, nsets * assoc of them,
	// set-major, so a hit is a single read-modify-write and a victim
	// scan reads 8 bytes per way.
	vlru []uint64
	// scanTags holds the compressed per-way tags of unlisted caches: the
	// set-index bits are implied by the way's position, so the remaining
	// bits fit 32 and a 16-way set's tags fit one cache line. It is the
	// only record of which block a way holds (see blockAt). nil when the
	// cache is listed.
	scanTags []uint32
	// ptrs holds each way's tag-extension index pointer; nil unless
	// Config.TagPointers. A way's pointer is written by fill, so the
	// pointer of an invalid way is never read.
	ptrs []uint32
	// lines and tags (block address, or invalidTag) exist only in listed
	// caches, whose list links and hash index address ways by position
	// and by full address.
	lines []line
	tags  []uint64
	// tagDropHi supports compressTag: the set-index bits [IndexShift,
	// tagDropHi) are dropped and the halves rejoined.
	tagDropHi uint
	setMask   uint64
	assoc     int32
	// listed is true for high-associativity caches, which maintain the
	// recency/free lists below; low-associativity caches pick victims by
	// scanning recency stamps instead, which is cheaper than list upkeep
	// on every touch, and move a hit way to the front of its set so
	// repeated probes of hot blocks terminate on the first compare (it
	// measurably pays even at 2 ways: the L1 lookup runs once per
	// simulated record, and hot blocks stick at way 0). wayMask is
	// assoc-1 (unlisted associativity is a power of two; see alloc).
	listed  bool
	wayMask int32

	// head/tail are the MRU/LRU ends of each set's recency list; free is
	// the head of each set's invalid-way list (listed caches only).
	head, tail, free []int32

	// idx is the block→line hash index (nil for low-associativity caches,
	// which scan the set linearly); key and line index live in one slot
	// so a probe touches a single cache line. noLine marks an empty slot.
	idx      []idxSlot
	idxMask  uint64
	idxShift uint

	lruClock   uint64
	stats      Stats
	pinLo      trace.BlockAddr
	pinHi      trace.BlockAddr
	pinEnabled bool
}

// New builds an empty cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return alloc(cfg), nil
}

// alloc sizes a cache's tables and writes the empty state into them:
// every way invalid and, in a listed cache, on its set's free list.
func alloc(cfg Config) *Cache {
	nsets := cfg.sets()
	nlines := nsets * cfg.Assoc
	c := &Cache{
		cfg:     cfg,
		setMask: uint64(nsets - 1),
		assoc:   int32(cfg.Assoc),
		listed:  cfg.Assoc >= indexMinAssoc,
		vlru:    make([]uint64, nlines),
	}
	setBits := uint(0)
	for 1<<setBits < nsets {
		setBits++
	}
	c.tagDropHi = cfg.IndexShift + setBits
	if !c.listed && (trace.BlockAddrBits-int(setBits) > 31 || cfg.Assoc&(cfg.Assoc-1) != 0) {
		// The scan layout requires the compressed tag to fit 31 bits
		// (possible to violate only with very small set counts) and a
		// power-of-two associativity (for the way-mask arithmetic).
		// Exotic geometries fall back to the indexed/listed layout; all
		// Table I caches use their natural layout.
		c.listed = true
	}
	if cfg.TagPointers {
		c.ptrs = make([]uint32, nlines)
	}
	if !c.listed {
		c.wayMask = c.assoc - 1
		c.scanTags = make([]uint32, nlines)
		for li := range c.scanTags {
			c.scanTags[li] = invalidTag32
		}
		return c
	}
	c.lines = make([]line, nlines)
	c.tags = make([]uint64, nlines)
	c.head = make([]int32, nsets)
	c.tail = make([]int32, nsets)
	c.free = make([]int32, nsets)
	// ≤25% load: probe chains and backward-shift deletion clusters stay
	// near length one, and the table is still tiny relative to the line
	// metadata it indexes.
	size := 1
	for size < 4*nlines {
		size <<= 1
	}
	c.idx = make([]idxSlot, size)
	c.idxMask = uint64(size - 1)
	shift := uint(64)
	for s := size; s > 1; s >>= 1 {
		shift--
	}
	c.idxShift = shift
	for i := range c.idx {
		c.idx[i] = idxSlot{li: noLine}
	}
	for si := range c.free {
		base := int32(si) * c.assoc
		for li := base; li < base+c.assoc; li++ {
			c.tags[li] = invalidTag
			c.lines[li] = line{prev: noLine, next: li + 1}
		}
		c.lines[base+c.assoc-1].next = noLine
		c.head[si], c.tail[si], c.free[si] = noLine, noLine, base
	}
	return c
}

// setIndex maps a block address to its set.
func (c *Cache) setIndex(b trace.BlockAddr) uint64 {
	return (uint64(b) >> c.cfg.IndexShift) & c.setMask
}

// idxSlot is one open-addressing slot of the block→line index.
type idxSlot struct {
	key uint64
	li  int32
}

// idxHome is the preferred index slot of key (Fibonacci hashing).
func (c *Cache) idxHome(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> c.idxShift
}

// idxFind returns the line index of block key, or noLine.
func (c *Cache) idxFind(key uint64) int32 {
	for i := c.idxHome(key); ; i = (i + 1) & c.idxMask {
		s := &c.idx[i]
		if s.li == noLine {
			return noLine
		}
		if s.key == key {
			return s.li
		}
	}
}

// idxInsert records key→li. The table is sized to ≥4× the line count
// (see alloc), so load stays at or below 25% and probe chains stay short.
func (c *Cache) idxInsert(key uint64, li int32) {
	i := c.idxHome(key)
	for c.idx[i].li != noLine {
		i = (i + 1) & c.idxMask
	}
	c.idx[i] = idxSlot{key: key, li: li}
}

// idxDelete removes key using backward-shift deletion, which keeps probe
// chains tombstone-free (Knuth 6.4 algorithm R).
func (c *Cache) idxDelete(key uint64) {
	i := c.idxHome(key)
	for {
		if c.idx[i].li == noLine {
			return // absent
		}
		if c.idx[i].key == key {
			break
		}
		i = (i + 1) & c.idxMask
	}
	j := i
	for {
		j = (j + 1) & c.idxMask
		if c.idx[j].li == noLine {
			c.idx[i].li = noLine
			return
		}
		home := c.idxHome(c.idx[j].key)
		// Move idx[j] into the hole at i only if its home position does
		// not lie in the cyclic interval (i, j] — otherwise the move would
		// break j's probe chain.
		if (j-home)&c.idxMask >= (j-i)&c.idxMask {
			c.idx[i] = c.idx[j]
			i = j
		}
	}
}

// compressTag drops b's set-index bits (implied by way position).
func (c *Cache) compressTag(b trace.BlockAddr) uint32 {
	lo := uint64(b) & (1<<c.cfg.IndexShift - 1)
	return uint32(uint64(b)>>c.tagDropHi<<c.cfg.IndexShift | lo)
}

// blockAt returns the block address held by valid way li of set si. An
// unlisted cache stores only the compressed tag, so the address is put
// back together from it and the set index — compressTag's inverse.
func (c *Cache) blockAt(si uint64, li int32) trace.BlockAddr {
	if c.listed {
		return trace.BlockAddr(c.tags[li])
	}
	t := uint64(c.scanTags[li])
	lo := t & (1<<c.cfg.IndexShift - 1)
	return trace.BlockAddr(t>>c.cfg.IndexShift<<c.tagDropHi | si<<c.cfg.IndexShift | lo)
}

// scan is the pure linear probe of b's set (no transposition — callers
// apply move-to-front via mtfAdjust). Tags are dense — 4 compressed
// bytes per way, one cache line for a 16-way set — so it is a plain
// compare loop over one sub-slice with a single bounds check. scan and
// mtfAdjust are deliberately small enough to inline into the hot
// operations, so a probe costs no function calls at all (only unlisted
// caches call them; indexed caches probe via idxFind).
func (c *Cache) scan(b trace.BlockAddr) int32 {
	base := int32(c.setIndex(b)) * c.assoc
	key := c.compressTag(b)
	for w, t := range c.scanTags[base : base+c.assoc] {
		if t == key {
			return base + int32(w)
		}
	}
	return noLine
}

// mtfAdjust applies the unlisted move-to-front transposition after a
// successful scan. Callers invoke it only on a hit (li != noLine) of an
// unlisted cache.
func (c *Cache) mtfAdjust(li int32) int32 {
	base := li &^ c.wayMask
	if li == base {
		return li
	}
	return c.promote(base, li)
}

// promote move-to-front transposes a hit at li to its set's way 0:
// repeated probes of hot blocks (history-block reads, cross-core
// prefetches of the same stream) then terminate on the first compare.
// Way position is unobservable through the API, so this is purely a
// scan-length optimization. Only unlisted caches may transpose: list
// links address lines by index.
//
//go:noinline
func (c *Cache) promote(base, li int32) int32 {
	c.scanTags[base], c.scanTags[li] = c.scanTags[li], c.scanTags[base]
	c.vlru[base], c.vlru[li] = c.vlru[li], c.vlru[base]
	if c.ptrs != nil {
		c.ptrs[base], c.ptrs[li] = c.ptrs[li], c.ptrs[base]
	}
	return base
}

// listDetach unlinks li from its set's recency list.
func (c *Cache) listDetach(si uint64, li int32) {
	ln := &c.lines[li]
	if ln.prev != noLine {
		c.lines[ln.prev].next = ln.next
	} else {
		c.head[si] = ln.next
	}
	if ln.next != noLine {
		c.lines[ln.next].prev = ln.prev
	} else {
		c.tail[si] = ln.prev
	}
}

// listPushFront makes li the MRU line of set si.
func (c *Cache) listPushFront(si uint64, li int32) {
	ln := &c.lines[li]
	ln.prev = noLine
	ln.next = c.head[si]
	if c.head[si] != noLine {
		c.lines[c.head[si]].prev = li
	}
	c.head[si] = li
	if c.tail[si] == noLine {
		c.tail[si] = li
	}
}

// inPinRange reports whether b falls in the pinned range.
func (c *Cache) inPinRange(b trace.BlockAddr) bool {
	return c.pinEnabled && b >= c.pinLo && b < c.pinHi
}

// demandTouch applies a demand hit to li: bump recency, set referenced,
// and consume the prefetched bit, reporting whether it was set. The
// whole update is one read-modify-write of the packed word.
func (c *Cache) demandTouch(si uint64, li int32) (wasPrefetch bool) {
	c.lruClock++
	v := c.vlru[li]
	if v&vlruPrefetched != 0 {
		c.stats.PrefetchHits++
		wasPrefetch = true
	}
	c.vlru[li] = c.lruClock<<vlruStampShift | (v&vlruFlags)&^vlruPrefetched | vlruReferenced
	if c.listed && c.head[si] != li {
		c.listDetach(si, li)
		c.listPushFront(si, li)
	}
	return wasPrefetch
}

// Evicted describes a line displaced by an insert.
type Evicted struct {
	Block trace.BlockAddr
	// PrefetchUnused is true if the line was prefetched and never
	// demand-referenced (an overprediction/discard).
	PrefetchUnused bool
	Pointer        uint32
}

// LookupInsert performs a demand access to b and, on a miss, fills b in
// the same probe (the common miss path: a lookup that misses is always
// followed by a fill). Statistics and recency are identical to Lookup
// followed by Insert on a miss, and to Lookup alone on a hit.
func (c *Cache) LookupInsert(b trace.BlockAddr, prefetch bool) (hit, wasPrefetch bool, ev Evicted, evicted bool) {
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
	if li != noLine {
		c.stats.Hits++
		wasPrefetch = c.demandTouch(c.setIndex(b), li)
		return true, wasPrefetch, Evicted{}, false
	}
	c.stats.Misses++
	c.lruClock++
	ev, evicted = c.fill(b, prefetch)
	return false, false, ev, evicted
}

// fill installs b into a free or victim way of its set. The caller has
// already established that b is absent and bumped the LRU clock.
func (c *Cache) fill(b trace.BlockAddr, prefetch bool) (ev Evicted, evicted bool) {
	si := c.setIndex(b)
	var li int32
	if c.listed {
		li = c.free[si]
		if li != noLine {
			c.free[si] = c.lines[li].next
		} else {
			// Victim: walk from the LRU end past pinned lines.
			for li = c.tail[si]; li != noLine && c.vlru[li]&vlruPinned != 0; li = c.lines[li].prev {
			}
			if li == noLine {
				// Whole set pinned; cannot insert. Callers treat this as
				// a fill that bypasses the cache (only possible with
				// pathological pin ranges; guarded in SHIFT sizing).
				return Evicted{}, false
			}
			ev, evicted = c.evict(si, li)
		}
	} else {
		// Unlisted: first invalid way, else the minimum-stamp non-pinned
		// way — a scan over at most indexMinAssoc-1 ways.
		li = c.scanVictim(si)
		if li == noLine {
			return Evicted{}, false
		}
		if c.vlru[li] != 0 {
			ev, evicted = c.evict(si, li)
		}
	}
	fl := uint64(0)
	if prefetch {
		fl |= vlruPrefetched
	}
	if c.inPinRange(b) {
		fl |= vlruPinned
	}
	c.vlru[li] = c.lruClock<<vlruStampShift | fl
	if c.ptrs != nil {
		c.ptrs[li] = noPointer
	}
	if c.listed {
		c.tags[li] = uint64(b)
		c.listPushFront(si, li)
		c.idxInsert(uint64(b), li)
	} else {
		c.scanTags[li] = c.compressTag(b)
	}
	c.stats.Inserts++
	if prefetch {
		c.stats.PrefetchInserted++
	}
	return ev, evicted
}

// evict accounts the displacement of valid line li and unlinks it.
func (c *Cache) evict(si uint64, li int32) (ev Evicted, evicted bool) {
	v := c.vlru[li]
	ev = Evicted{
		Block:          c.blockAt(si, li),
		PrefetchUnused: v&vlruPrefetched != 0 && v&vlruReferenced == 0,
		Pointer:        noPointer,
	}
	if c.ptrs != nil {
		ev.Pointer = c.ptrs[li]
	}
	c.stats.Evictions++
	if ev.PrefetchUnused {
		c.stats.PrefetchDiscards++
	}
	if c.listed {
		c.listDetach(si, li)
		c.idxDelete(c.tags[li])
	}
	return ev, true
}

// scanVictim picks the first invalid way of set si, or the LRU non-pinned
// way by stamp scan, or noLine if the whole set is pinned. It reads only
// the packed vlru words — 8 bytes per way instead of the full line
// metadata — so a 16-way victim scan touches two cache lines.
func (c *Cache) scanVictim(si uint64) int32 {
	base := int32(si) * c.assoc
	best := noLine
	bestV := ^uint64(0)
	for w, v := range c.vlru[base : base+c.assoc] {
		if v == 0 {
			return base + int32(w) // first invalid way
		}
		if v&vlruPinned == 0 && v < bestV {
			best, bestV = base+int32(w), v
		}
	}
	return best
}

// CopyStateFrom makes c an exact replica of src, which must share c's
// configuration (same geometry and layout). The sampled batch runner
// uses it to catch followers' instruction caches up after a functional
// fast-forward segment in which only the batch lead stepped the
// (provably stream-pure, hence identical across members) L1-I: one
// bulk copy per segment replaces a per-record probe per member.
func (c *Cache) CopyStateFrom(src *Cache) {
	if c.cfg != src.cfg {
		panic("cache: CopyStateFrom across different configurations")
	}
	// Equal configurations have the same arrays; one a layout lacks is
	// nil on both sides and copies nothing.
	copy(c.vlru, src.vlru)
	copy(c.scanTags, src.scanTags)
	copy(c.ptrs, src.ptrs)
	copy(c.lines, src.lines)
	copy(c.tags, src.tags)
	copy(c.head, src.head)
	copy(c.tail, src.tail)
	copy(c.free, src.free)
	copy(c.idx, src.idx)
	c.lruClock = src.lruClock
	c.stats = src.stats
	c.pinLo, c.pinHi, c.pinEnabled = src.pinLo, src.pinHi, src.pinEnabled
}

// fpMix is the splitmix64 finalizer, used to decorrelate Fingerprint's
// per-line field combinations.
func fpMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
