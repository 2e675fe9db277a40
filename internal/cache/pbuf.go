package cache

import (
	"fmt"
	"math"
	"math/bits"

	"shift/internal/freelist"
	"shift/internal/trace"
)

// maxPrefetchBufferEntries is the largest prefetch buffer: its links are
// int16.
const maxPrefetchBufferEntries = math.MaxInt16

// PrefetchBuffer is a core's fully-associative prefetch buffer:
// prefetched blocks wait in it and leave on their first demand use. A
// block enters only through Insert, after Contains said it was absent,
// and leaves through Extract, so nothing ever refreshes a buffered
// block's recency and every block the buffer drops for room was never
// used. LRU is then insertion order: the buffer is an insertion-ordered
// set — a hash index from block to line and a FIFO of lines, oldest at
// the head — and evicts the head.
//
// A Reference (or a Cache) of one set of as many ways, driven with
// Extract, Contains and Insert(b, true) alike, makes the same hits and
// evicts the same blocks, and each of its evictions is an unused
// prefetch; a differential test holds it to that.
type PrefetchBuffer struct {
	// slotKeys and slotLines are the index: open addressing with linear
	// probing and backward-shift deletion, at most a quarter full.
	// slotKeys holds block+1 (zero: an empty slot), slotLines the line.
	slotKeys  []uint64
	slotLines []int16
	idxShift  uint
	idxMask   uint64
	// keys holds each line's block+1, for dropping the oldest line from
	// the index; links chain the lines in FIFO order from head to tail,
	// and the released ones through next from free.
	keys             []uint64
	links            []pbLink
	head, tail, free int16
	// used counts the lines ever taken since the last reset; the ones
	// past it are free without being on the free chain.
	used int16
}

// pbLink is one line's place in the FIFO (prev toward the head); -1 ends
// a chain.
type pbLink struct{ prev, next int16 }

// freePrefetchBuffers holds released buffers by entry count.
var freePrefetchBuffers = freelist.New[int, PrefetchBuffer]("prefetch_buffer")

// NewPrefetchBuffer builds an empty buffer of entries lines, on the tables
// of a released buffer of the same size when one is held.
func NewPrefetchBuffer(entries int) (*PrefetchBuffer, error) {
	if entries <= 0 || entries > maxPrefetchBufferEntries {
		return nil, fmt.Errorf("cache: prefetch buffer of %d entries (want 1 to %d)", entries, maxPrefetchBufferEntries)
	}
	p := freePrefetchBuffers.Get(entries)
	if p == nil {
		size := 1
		for size < 4*entries {
			size <<= 1
		}
		p = &PrefetchBuffer{
			slotKeys: make([]uint64, size), slotLines: make([]int16, size),
			idxMask: uint64(size - 1), idxShift: uint(64 - bits.TrailingZeros(uint(size))),
			keys: make([]uint64, entries), links: make([]pbLink, entries),
		}
	} else {
		clear(p.slotKeys)
	}
	p.head, p.tail, p.free, p.used = -1, -1, -1, 0
	return p, nil
}

// Release hands p's tables back for a later NewPrefetchBuffer of the same
// size. The caller must hold the only reference to p and must not use it
// again.
func (p *PrefetchBuffer) Release() { freePrefetchBuffers.Put(len(p.keys), p) }

// home is key's preferred slot (Fibonacci hashing).
func (p *PrefetchBuffer) home(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> p.idxShift
}

// find returns the slot holding key, or -1.
func (p *PrefetchBuffer) find(key uint64) int {
	for i := p.home(key); ; i = (i + 1) & p.idxMask {
		switch p.slotKeys[i] {
		case key:
			return int(i)
		case 0:
			return -1
		}
	}
}

// Contains reports whether b is buffered.
func (p *PrefetchBuffer) Contains(b trace.BlockAddr) bool { return p.find(uint64(b)+1) >= 0 }

// Extract is a demand access to b: it reports whether b was buffered and
// takes it out if so.
func (p *PrefetchBuffer) Extract(b trace.BlockAddr) bool {
	i := p.find(uint64(b) + 1)
	if i < 0 {
		return false
	}
	li := p.slotLines[i]
	p.dropSlot(i)
	p.unlink(li)
	p.links[li].next, p.free = p.free, li
	return true
}

// Insert buffers b, which must be absent, as the newest block. When the
// buffer is full the oldest block makes room, and Insert reports it: an
// unused prefetch discarded.
func (p *PrefetchBuffer) Insert(b trace.BlockAddr) (evicted bool) {
	li := p.free
	switch {
	case li >= 0:
		p.free = p.links[li].next
	case int(p.used) < len(p.keys):
		li = p.used
		p.used++
	default:
		li, evicted = p.head, true
		p.dropSlot(p.find(p.keys[li]))
		p.unlink(li)
	}
	key := uint64(b) + 1
	p.keys[li] = key
	p.links[li] = pbLink{prev: p.tail, next: -1}
	if p.tail >= 0 {
		p.links[p.tail].next = li
	} else {
		p.head = li
	}
	p.tail = li
	i := p.home(key)
	for p.slotKeys[i] != 0 {
		i = (i + 1) & p.idxMask
	}
	p.slotKeys[i], p.slotLines[i] = key, li
	return evicted
}

// unlink takes line li out of the FIFO.
func (p *PrefetchBuffer) unlink(li int16) {
	l := p.links[li]
	if l.prev >= 0 {
		p.links[l.prev].next = l.next
	} else {
		p.head = l.next
	}
	if l.next >= 0 {
		p.links[l.next].prev = l.prev
	} else {
		p.tail = l.prev
	}
}

// dropSlot empties index slot i by backward-shift deletion, which keeps
// probe chains free of tombstones (Knuth 6.4, algorithm R): a later key
// of the chain moves into the hole unless its home lies in the cyclic
// interval (i, j], where the move would break its own chain.
func (p *PrefetchBuffer) dropSlot(i int) {
	hole := uint64(i)
	for j := (hole + 1) & p.idxMask; ; j = (j + 1) & p.idxMask {
		key := p.slotKeys[j]
		if key == 0 {
			break
		}
		if (j-p.home(key))&p.idxMask >= (j-hole)&p.idxMask {
			p.slotKeys[hole], p.slotLines[hole] = key, p.slotLines[j]
			hole = j
		}
	}
	p.slotKeys[hole] = 0
}
