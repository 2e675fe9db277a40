package cache

import (
	"math"

	"shift/internal/freelist"
	"shift/internal/trace"
)

// ICache is the L1 instruction cache: a set-associative LRU cache that
// only ever sees demand accesses that fill on a miss. It needs none of
// what Cache carries — prefetch and pin flags, tag-extension pointers,
// invalidation, an index — so it
// is two arrays and nothing else: one tag (block+1, zero for an empty
// way) and one recency stamp per way, 12 host bytes per modelled line.
//
// Ways are slot-stable: a block stays in the way it was filled into
// until it is evicted (Cache transposes a hit way to the front of its
// set). That makes the way a miss went into a fact another ICache can be
// told: a replica (NewICacheReplica) holds the tags alone and follows
// the cache that decides, one Put per miss, which is all the simulator's
// RunBatch followers keep of the instruction cache their lead steps —
// membership, for their prefetch filter.
//
// Hit/miss sequence, evictions and resident sets equal those of a Cache
// (and of Reference) of the same geometry driven with LookupInsert(b,
// false); a differential test holds it to that.
type ICache struct {
	cfg Config
	// tags holds block+1 per way, sets × ways, zero for an empty way.
	tags []uint64
	// stamps holds the clock value of each way's last access, zero for a
	// way never filled; nil on a replica.
	stamps []uint32
	ways   int
	shift  uint
	mask   uint64
	clock  uint32
}

// icacheKey tells the free lists of full caches and replicas apart.
type icacheKey struct {
	cfg     Config
	replica bool
}

// freeICaches holds released instruction caches by geometry and kind.
var freeICaches = freelist.New[icacheKey, ICache]("l1i")

// NewICache builds an empty instruction cache of geometry cfg (its
// TagPointers flag means nothing here), on the tables of a released one
// when one is held.
func NewICache(cfg Config) (*ICache, error) { return newICache(cfg, false) }

// NewICacheReplica builds an empty replica: the tags of an ICache of
// geometry cfg and nothing else. It answers Contains and takes Put and
// CopyTagsFrom; LookupInsert is not for it.
func NewICacheReplica(cfg Config) (*ICache, error) { return newICache(cfg, true) }

func newICache(cfg Config, replica bool) (*ICache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := freeICaches.Get(icacheKey{cfg, replica})
	if c == nil {
		lines := cfg.sets() * cfg.Assoc
		c = &ICache{cfg: cfg, tags: make([]uint64, lines), ways: cfg.Assoc, shift: cfg.IndexShift, mask: uint64(cfg.sets() - 1)}
		if !replica {
			c.stamps = make([]uint32, lines)
		}
		return c, nil
	}
	// 6 KB for the Table I geometry: clearing it all costs less than
	// tracking what was written.
	clear(c.tags)
	clear(c.stamps)
	c.clock = 0
	return c, nil
}

// Release hands c's tables back for a later constructor of the same
// geometry and kind. The caller must hold the only reference to c and
// must not use it again.
func (c *ICache) Release() { freeICaches.Put(icacheKey{c.cfg, c.stamps == nil}, c) }

// Replica reports whether c holds tags only.
func (c *ICache) Replica() bool { return c.stamps == nil }

// setBase returns the position of the first way of b's set.
func (c *ICache) setBase(b trace.BlockAddr) int {
	return int(uint64(b)>>c.shift&c.mask) * c.ways
}

// LookupInsert performs a demand access to b: a hit refreshes b's
// recency, a miss fills b into the first empty way of its set or else
// over the least recently used block. way is where b now sits.
//
// One pass over the set finds both the way that holds b and the way
// with the least stamp, as conditional moves, and the store that follows
// is the same for a hit and a miss: the outcome of an instruction fetch
// is close to a coin toss (a record is a block visit, and most visit a
// block other than the last), so every branch on it that is not taken
// here is a misprediction saved. Ways fill front to back and are never
// emptied, and a way never filled has stamp zero: the first least stamp
// is the first empty way while there is one and the LRU way after that.
func (c *ICache) LookupInsert(b trace.BlockAddr) (hit bool, way int) {
	if c.clock == math.MaxUint32 {
		c.renumber()
	}
	c.clock++
	key, base := uint64(b)+1, c.setBase(b)
	tags := c.tags[base : base+c.ways]
	stamps := c.stamps[base : base+c.ways][:len(tags)]
	held, least := -1, stamps[0]
	for w, t := range tags {
		if t == key {
			held = w
		}
		if s := stamps[w]; s < least {
			way, least = w, s
		}
	}
	if hit = held >= 0; hit {
		way = held
	}
	tags[way], stamps[way] = key, c.clock
	return hit, way
}

// renumber makes room on the clock once in 2^32 accesses: each set's
// stamps become their ranks, which keeps every comparison LookupInsert
// will make.
func (c *ICache) renumber() {
	old := make([]uint32, c.ways)
	for base := 0; base < len(c.stamps); base += c.ways {
		set := c.stamps[base : base+c.ways]
		copy(old, set)
		for w, s := range old {
			set[w] = 0
			for _, o := range old {
				if o != 0 && o <= s {
					set[w]++
				}
			}
		}
	}
	c.clock = uint32(c.ways)
}

// Contains reports whether b is present, without touching recency.
func (c *ICache) Contains(b trace.BlockAddr) bool {
	key, base := uint64(b)+1, c.setBase(b)
	for _, t := range c.tags[base : base+c.ways] {
		if t == key {
			return true
		}
	}
	return false
}

// Put is a replica's side of a miss: b goes into the way the deciding
// cache's LookupInsert returned.
func (c *ICache) Put(b trace.BlockAddr, way int) { c.tags[c.setBase(b)+way] = uint64(b) + 1 }

// CopyTagsFrom makes c hold exactly the blocks of src, way for way. The
// two must share a geometry.
func (c *ICache) CopyTagsFrom(src *ICache) {
	if c.cfg != src.cfg {
		panic("cache: CopyTagsFrom across different configurations")
	}
	copy(c.tags, src.tags)
}

// SetBlocks returns the blocks resident in set si, in way order. It
// allocates and is meant for tests and debugging.
func (c *ICache) SetBlocks(si int) []trace.BlockAddr {
	var out []trace.BlockAddr
	for _, t := range c.tags[si*c.ways : (si+1)*c.ways] {
		if t != 0 {
			out = append(out, trace.BlockAddr(t-1))
		}
	}
	return out
}

// Fingerprint returns a hash of the cache's content: every resident
// block with its recency stamp, set by set, and the clock. Two ICaches
// with equal fingerprints respond identically to any further accesses.
// The sampled-execution differential tests use it to show functional and
// detailed stepping leave identical instruction caches.
func (c *ICache) Fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for base := 0; base < len(c.tags); base += c.ways {
		var setH uint64
		for w, t := range c.tags[base : base+c.ways] {
			if t == 0 {
				continue
			}
			var stamp uint64
			if c.stamps != nil {
				stamp = uint64(c.stamps[base+w])
			}
			setH += fpMix(t ^ fpMix(stamp))
		}
		h = (h ^ setH) * prime
	}
	return (h ^ uint64(c.clock)) * prime
}
