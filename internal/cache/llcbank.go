package cache

import (
	"fmt"
	"math/bits"

	"shift/internal/freelist"
	"shift/internal/trace"
)

// LLCBank is one bank of the shared NUCA LLC: a set-associative LRU cache
// that never invalidates a line, with the two mechanisms virtualized
// SHIFT needs of it (paper Section 4.2) — a pinned address range whose
// lines are never chosen as victims, and a per-line tag extension
// holding an index pointer into the history buffer.
//
// Recency is positional, as in history.IndexTable: each set is a stack
// of tag+1 words in MRU→LRU order with llcPinned on top of a pinned
// line, and the empty ways (zero) trail the valid ones. A tag is the
// block without its set-index bits, which the set implies, so a word is
// 32 bits and a 16-way set is one 64-byte host cache line. A hit moves
// its line to the front, a fill goes in front and drops the first empty
// way or else the deepest unpinned line; a set whose lines are all
// pinned is bypassed. No stamp, no clock: 4 host bytes per modelled
// line, 8 with the pointers, which move with their lines.
//
// That is exactly the stamp-LRU of Reference: with nothing invalidated
// the empty ways of a set are its last ones, the first empty way is a
// way Reference would fill too, and the stack order is the descending
// stamp order. The LLC never holds a prefetched flag (the simulator
// fills it with demand fills only) and nothing reads its counters or
// its victims, so the bank keeps neither. A differential test holds it
// to Reference.
type LLCBank struct {
	// geom is the bank's geometry with TagPointers clear: banks with and
	// without pointers share their free lists (see NewLLCBank).
	geom Config
	// lines holds each set's stack, sets × ways, set-major.
	lines []uint32
	// ptrs holds each way's tag-extension pointer, nil unless built with
	// TagPointers; it is ptrBuf, which a bank keeps once it has one. A
	// fill writes noPointer, so the pointer of an empty way is never read.
	ptrs, ptrBuf []uint32
	ways         int
	// A block's set is its bits [shift, tagShift); its tag is the bits
	// above tagShift moved down to shift, under the low bits (lo).
	shift, tagShift uint
	mask, lo        uint64
	// dirty holds one bit per set, set when an empty set takes its first
	// line, so a reset rewrites just those sets.
	dirty []uint64
	// [pinLo, pinHi) is the pinned range; empty until PinRange.
	pinLo, pinHi trace.BlockAddr
}

// llcPinned marks a pinned line's word. A bank has at least llcMinSets
// sets, so tag+1 fits in 31 bits and never reaches it.
const llcPinned = uint32(1) << 31

// llcMinSets is the fewest sets an LLCBank takes: with fewer, a tag of a
// trace.BlockAddrBits-bit block plus one would reach llcPinned.
const llcMinSets = 1 << (trace.BlockAddrBits - 30)

// llcKey is a free list of banks: a geometry, and whether its banks hold
// a pointer array.
type llcKey struct {
	geom     Config
	pointers bool
}

// freeLLCBanks holds released banks.
var freeLLCBanks freelist.Keyed[llcKey, LLCBank]

// ValidateLLCBank reports the first problem with c as the geometry of an
// LLCBank, or nil: what Validate reports, or fewer than llcMinSets sets.
func (c Config) ValidateLLCBank() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.sets() < llcMinSets {
		return fmt.Errorf("cache: LLC bank of %d sets, fewer than %d", c.sets(), llcMinSets)
	}
	return nil
}

// NewLLCBank builds an empty bank of geometry cfg, with the pointer array
// when cfg.TagPointers is set, on the tables of a released bank of the
// same geometry when one is held. A released bank of the other kind will
// do: only virtualized SHIFT wants the pointers, and a batch that runs it
// after five other designs on one set of banks (one after another) adds
// the pointers to that set rather than building a second one. The bank
// keeps its pointer array for later lives, and a bank that has one goes
// first to a builder that wants it, so banks with pointers do not spread
// through a sweep whose Systems live side by side.
func NewLLCBank(cfg Config) (*LLCBank, error) {
	if err := cfg.ValidateLLCBank(); err != nil {
		return nil, err
	}
	geom := cfg
	geom.TagPointers = false
	c := freeLLCBanks.Get(llcKey{geom, cfg.TagPointers})
	if c == nil {
		c = freeLLCBanks.Get(llcKey{geom, !cfg.TagPointers})
	}
	if c != nil {
		c.reset()
	} else {
		sets := cfg.sets()
		c = &LLCBank{
			geom: geom, lines: make([]uint32, sets*cfg.Assoc), ways: cfg.Assoc,
			shift: cfg.IndexShift, tagShift: cfg.IndexShift + uint(bits.Len(uint(sets-1))),
			mask: uint64(sets - 1), lo: 1<<cfg.IndexShift - 1, dirty: make([]uint64, (sets+63)/64),
		}
	}
	c.ptrs = nil
	if cfg.TagPointers {
		if c.ptrBuf == nil {
			c.ptrBuf = make([]uint32, len(c.lines))
		}
		c.ptrs = c.ptrBuf
	}
	return c, nil
}

// Release hands c's tables back for a later NewLLCBank of the same
// geometry. The caller must hold the only reference to c and must not use
// it again.
func (c *LLCBank) Release() { freeLLCBanks.Put(llcKey{c.geom, c.ptrBuf != nil}, c) }

// reset empties the sets filled since the last reset.
func (c *LLCBank) reset() {
	for wi, w := range c.dirty {
		for ; w != 0; w &= w - 1 {
			base := (wi<<6 | bits.TrailingZeros64(w)) * c.ways
			clear(c.lines[base : base+c.ways])
		}
		c.dirty[wi] = 0
	}
	c.pinLo, c.pinHi = 0, 0
}

// PinRange makes [lo, hi) non-evictable: a line of the range is pinned
// when it is filled or re-inserted.
func (c *LLCBank) PinRange(lo, hi trace.BlockAddr) { c.pinLo, c.pinHi = lo, hi }

// key is b's stack word without the pin: its tag plus one. The shift
// counts are masked to tell the compiler they stay under 64.
func (c *LLCBank) key(b trace.BlockAddr) uint32 {
	return uint32(uint64(b)>>(c.tagShift&63)<<(c.shift&63)|uint64(b)&c.lo) + 1
}

// word is b's stack word as a fill or an Insert writes it.
func (c *LLCBank) word(b trace.BlockAddr) uint32 {
	if b >= c.pinLo && b < c.pinHi {
		return c.key(b) | llcPinned
	}
	return c.key(b)
}

// setBase returns the position of the first way of b's set.
func (c *LLCBank) setBase(b trace.BlockAddr) int {
	return int(uint64(b)>>c.shift&c.mask) * c.ways
}

// find returns where b's set starts and the way of it that holds b, or
// -1.
func (c *LLCBank) find(b trace.BlockAddr) (base, way int) {
	key, base := c.key(b), c.setBase(b)
	for w, v := range c.lines[base : base+c.ways] {
		if v&^llcPinned == key {
			return base, w
		}
		if v == 0 {
			break
		}
	}
	return base, -1
}

// LookupInsert is a demand access to b that fills b on a miss. A hit
// moves b to the front of its set and keeps its pin; see access for the
// fill.
func (c *LLCBank) LookupInsert(b trace.BlockAddr) (hit bool) { return c.access(b, false) }

// Insert fills b. A present b moves to the front of its set and takes the
// pin its address calls for now, so a line filled before PinRange became
// pinned on its next fill inside the range.
func (c *LLCBank) Insert(b trace.BlockAddr) { c.access(b, true) }

// access is LookupInsert and Insert: one pass over b's set that stops at
// b, at the first empty way, or at the end of a full set. Whichever way
// the pass settles on — b's own, the empty one, or the victim — drops out
// and the lines in front of it move down one, making room at the front.
func (c *LLCBank) access(b trace.BlockAddr, repin bool) (hit bool) {
	key, base := c.key(b), c.setBase(b)
	set := c.lines[base : base+c.ways]
	w := 0
	for ; w < len(set); w++ {
		v := set[w]
		if v&^llcPinned == key {
			if repin {
				v = c.word(b)
			}
			c.toFront(set, base, w, v, c.pointerAt(base+w))
			return true
		}
		if v == 0 {
			if w == 0 {
				si := base / c.ways
				c.dirty[si>>6] |= 1 << (si & 63)
			}
			c.toFront(set, base, w, c.word(b), noPointer)
			return false
		}
	}
	// Full set: the deepest unpinned line is the least recently used one.
	for w--; w >= 0 && set[w]&llcPinned != 0; w-- {
	}
	if w >= 0 {
		c.toFront(set, base, w, c.word(b), noPointer)
	}
	return false
}

// pointerAt returns way li's pointer, or noPointer without the array.
func (c *LLCBank) pointerAt(li int) uint32 {
	if c.ptrs == nil {
		return noPointer
	}
	return c.ptrs[li]
}

// toFront drops way w of set (which starts at base), moves the ways in
// front of it down one and writes v, with pointer ptr, at the front.
func (c *LLCBank) toFront(set []uint32, base, w int, v, ptr uint32) {
	if w > 0 {
		copy(set[1:w+1], set[:w])
	}
	set[0] = v
	if c.ptrs != nil {
		p := c.ptrs[base : base+w+1]
		copy(p[1:], p[:w])
		p[0] = ptr
	}
}

// Contains reports whether b is present, without touching the order.
func (c *LLCBank) Contains(b trace.BlockAddr) bool {
	_, w := c.find(b)
	return w >= 0
}

// SetPointer writes the tag-extension pointer of b if b is present. It
// returns false if b is absent (the paper: the index update is dropped
// when the trigger block is not LLC-resident) or the bank has no
// pointers.
func (c *LLCBank) SetPointer(b trace.BlockAddr, ptr uint32) bool {
	if c.ptrs == nil {
		return false
	}
	base, w := c.find(b)
	if w < 0 {
		return false
	}
	c.ptrs[base+w] = ptr
	return true
}

// Pointer reads the tag-extension pointer of b. ok is false if b is
// absent or has no pointer set, or the bank has no pointers.
func (c *LLCBank) Pointer(b trace.BlockAddr) (ptr uint32, ok bool) {
	if c.ptrs == nil {
		return noPointer, false
	}
	base, w := c.find(b)
	if w < 0 || c.ptrs[base+w] == noPointer {
		return noPointer, false
	}
	return c.ptrs[base+w], true
}

// PinnedCount returns the number of pinned lines.
func (c *LLCBank) PinnedCount() int {
	n := 0
	for _, v := range c.lines {
		if v&llcPinned != 0 {
			n++
		}
	}
	return n
}

// Fingerprint returns a hash of the bank's content: every set's stack,
// pins and pointers in order. Two banks with equal fingerprints respond
// identically to any further accesses.
func (c *LLCBank) Fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for li, v := range c.lines {
		if v != 0 {
			h = (h ^ fpMix(uint64(li)^fpMix(uint64(v)^fpMix(uint64(c.pointerAt(li)))))) * prime
		}
	}
	return h
}
