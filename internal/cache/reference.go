package cache

import "shift/internal/trace"

// Reference is the retained naive implementation of the Cache contract:
// linear tag scans, full-set victim scans, no hash index, no recency
// lists. It is the executable specification Cache, ICache, LLCBank and
// PrefetchBuffer are differentially tested against (diff_test.go,
// icache_test.go, llcbank_test.go, pbuf_test.go) and is deliberately
// kept simple — do not optimize it.
//
// Observable behavior (operation results, Stats, membership, LRU order,
// pointer tags) must match Cache exactly; internal way placement may
// differ, which is unobservable through the API.
type Reference struct {
	cfg        Config
	sets       [][]refLine
	setMask    uint64
	lruClock   uint64
	stats      Stats
	pinLo      trace.BlockAddr
	pinHi      trace.BlockAddr
	pinEnabled bool
}

type refLine struct {
	tag        uint64
	valid      bool
	lru        uint64
	prefetched bool
	referenced bool
	pinned     bool
	pointer    uint32
}

// NewReference builds the naive reference cache.
func NewReference(cfg Config) (*Reference, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	c := &Reference{cfg: cfg, setMask: uint64(nsets - 1)}
	c.sets = make([][]refLine, nsets)
	backing := make([]refLine, nsets*cfg.Assoc)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc]
		for w := range c.sets[i] {
			c.sets[i][w].pointer = NoPointer
		}
	}
	return c, nil
}

// MustNewReference panics on config errors.
func MustNewReference(cfg Config) *Reference {
	c, err := NewReference(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Stats returns a copy of the event counters.
func (c *Reference) Stats() Stats { return c.stats }

func (c *Reference) setIndex(b trace.BlockAddr) uint64 {
	return (uint64(b) >> c.cfg.IndexShift) & c.setMask
}

func (c *Reference) findWay(b trace.BlockAddr) (set []refLine, way int) {
	set = c.sets[c.setIndex(b)]
	for w := range set {
		if set[w].valid && set[w].tag == uint64(b) {
			return set, w
		}
	}
	return set, -1
}

// PinRange marks [lo, hi) as non-evictable.
func (c *Reference) PinRange(lo, hi trace.BlockAddr) {
	c.pinLo, c.pinHi, c.pinEnabled = lo, hi, true
}

func (c *Reference) inPinRange(b trace.BlockAddr) bool {
	return c.pinEnabled && b >= c.pinLo && b < c.pinHi
}

// Contains reports whether b is present, without touching LRU or stats.
func (c *Reference) Contains(b trace.BlockAddr) bool {
	_, w := c.findWay(b)
	return w >= 0
}

// Lookup performs a demand access to b.
func (c *Reference) Lookup(b trace.BlockAddr) (hit, wasPrefetch bool) {
	set, w := c.findWay(b)
	if w < 0 {
		c.stats.Misses++
		return false, false
	}
	ln := &set[w]
	c.lruClock++
	ln.lru = c.lruClock
	c.stats.Hits++
	if ln.prefetched {
		c.stats.PrefetchHits++
		ln.prefetched = false
		wasPrefetch = true
	}
	ln.referenced = true
	return true, wasPrefetch
}

// Extract is a demand access that removes the line on a hit.
func (c *Reference) Extract(b trace.BlockAddr) (hit, wasPrefetch bool) {
	hit, wasPrefetch = c.Lookup(b)
	if hit {
		c.Invalidate(b)
	}
	return hit, wasPrefetch
}

// Insert fills b; see Cache.Insert for the refresh semantics.
func (c *Reference) Insert(b trace.BlockAddr, prefetch bool) (ev Evicted, evicted bool) {
	set, w := c.findWay(b)
	c.lruClock++
	if w >= 0 {
		set[w].lru = c.lruClock
		if !prefetch {
			set[w].prefetched = false
		}
		set[w].pinned = c.inPinRange(b)
		return Evicted{}, false
	}
	victim := c.victim(set)
	if victim < 0 {
		return Evicted{}, false
	}
	ln := &set[victim]
	if ln.valid {
		ev = Evicted{Block: trace.BlockAddr(ln.tag), PrefetchUnused: ln.prefetched && !ln.referenced, Pointer: ln.pointer}
		evicted = true
		c.stats.Evictions++
		if ev.PrefetchUnused {
			c.stats.PrefetchDiscards++
		}
	}
	*ln = refLine{
		tag:        uint64(b),
		valid:      true,
		lru:        c.lruClock,
		prefetched: prefetch,
		pinned:     c.inPinRange(b),
		pointer:    NoPointer,
	}
	c.stats.Inserts++
	if prefetch {
		c.stats.PrefetchInserted++
	}
	return ev, evicted
}

// LookupInsert is a demand access that fills on a miss.
func (c *Reference) LookupInsert(b trace.BlockAddr, prefetch bool) (hit, wasPrefetch bool, ev Evicted, evicted bool) {
	hit, wasPrefetch = c.Lookup(b)
	if !hit {
		ev, evicted = c.Insert(b, prefetch)
	}
	return hit, wasPrefetch, ev, evicted
}

// victim picks the LRU non-pinned way, or an invalid way if present.
func (c *Reference) victim(set []refLine) int {
	best := -1
	var bestLRU uint64
	for w := range set {
		if !set[w].valid {
			return w
		}
		if set[w].pinned {
			continue
		}
		if best < 0 || set[w].lru < bestLRU {
			best, bestLRU = w, set[w].lru
		}
	}
	return best
}

// Invalidate removes b if present, returning whether it was present.
func (c *Reference) Invalidate(b trace.BlockAddr) bool {
	set, w := c.findWay(b)
	if w < 0 {
		return false
	}
	set[w] = refLine{pointer: NoPointer}
	return true
}

// SetPointer writes the tag-extension index pointer of b if present.
func (c *Reference) SetPointer(b trace.BlockAddr, ptr uint32) bool {
	if !c.cfg.TagPointers {
		return false
	}
	set, w := c.findWay(b)
	if w < 0 {
		return false
	}
	set[w].pointer = ptr
	return true
}

// Pointer reads the tag-extension index pointer of b.
func (c *Reference) Pointer(b trace.BlockAddr) (ptr uint32, ok bool) {
	if !c.cfg.TagPointers {
		return NoPointer, false
	}
	set, w := c.findWay(b)
	if w < 0 || set[w].pointer == NoPointer {
		return NoPointer, false
	}
	return set[w].pointer, true
}

// PinnedCount returns the number of currently pinned, valid lines.
func (c *Reference) PinnedCount() int {
	n := 0
	for _, set := range c.sets {
		for w := range set {
			if set[w].valid && set[w].pinned {
				n++
			}
		}
	}
	return n
}

// ValidCount returns the number of valid lines.
func (c *Reference) ValidCount() int {
	n := 0
	for _, set := range c.sets {
		for w := range set {
			if set[w].valid {
				n++
			}
		}
	}
	return n
}

// SetLRUOrder returns the valid blocks of set si ordered MRU→LRU
// (descending stamp).
func (c *Reference) SetLRUOrder(si int) []trace.BlockAddr {
	set := c.sets[si]
	var out []trace.BlockAddr
	used := make([]bool, len(set))
	for {
		best, bestW := uint64(0), -1
		for w := range set {
			if set[w].valid && !used[w] && (bestW < 0 || set[w].lru > best) {
				best, bestW = set[w].lru, w
			}
		}
		if bestW < 0 {
			return out
		}
		used[bestW] = true
		out = append(out, trace.BlockAddr(set[bestW].tag))
	}
}
