// Package history implements the temporal-instruction-streaming machinery
// shared by PIF and SHIFT (paper Sections 2.2 and 4.1):
//
//   - spatial region records: a trigger instruction-block address plus a
//     bit vector over the blocks that follow it;
//   - the region builder that collapses a retire-order block stream into
//     region records;
//   - the circular history buffer of region records with its write pointer;
//   - the index table mapping trigger addresses to their most recent
//     position in the history buffer;
//   - the per-core stream address buffers (SABs) that replay streams and
//     coordinate prefetch requests.
package history

import (
	"fmt"
	"math/bits"

	"shift/internal/trace"
)

// DefaultRegionSpan is the paper's spatial region size: the trigger block
// plus the seven following blocks ("a spatial region size of eight ...
// achieve[s] the maximum performance", Section 4.1).
const DefaultRegionSpan = 8

// MaxRegionSpan bounds the configurable span (the sensitivity sweep
// explores 2..16; the bit vector is 15 bits wide at span 16).
const MaxRegionSpan = 16

// Region is one spatial region record. Bit i of Vec set means block
// Trigger+i+1 was accessed while the region was live; the trigger block
// itself is implicitly accessed.
//
// At the paper's span of 8 this is the 41-bit record of Section 4.2
// (34-bit trigger + 7-bit vector).
type Region struct {
	Trigger trace.BlockAddr
	Vec     uint16
}

// Contains reports whether the record covers block b under the given span.
func (r Region) Contains(b trace.BlockAddr, span int) bool {
	if b == r.Trigger {
		return true
	}
	if b < r.Trigger {
		return false
	}
	off := uint64(b - r.Trigger)
	if off >= uint64(span) {
		return false
	}
	return r.Vec&(1<<(off-1)) != 0
}

// Blocks appends the covered block addresses (trigger first, then the set
// vector offsets in ascending order) to dst and returns it. The vector is
// walked set-bit by set-bit, so the cost scales with the blocks actually
// covered rather than the span.
func (r Region) Blocks(dst []trace.BlockAddr, span int) []trace.BlockAddr {
	dst = append(dst, r.Trigger)
	vec := uint32(r.Vec) & (1<<(span-1) - 1)
	for vec != 0 {
		off := bits.TrailingZeros32(vec)
		dst = append(dst, r.Trigger+trace.BlockAddr(off+1))
		vec &= vec - 1
	}
	return dst
}

// Count returns the number of blocks the record covers (trigger included).
func (r Region) Count(span int) int {
	n := 1
	for off := 1; off < span; off++ {
		if r.Vec&(1<<(off-1)) != 0 {
			n++
		}
	}
	return n
}

// String formats the record compactly.
func (r Region) String() string {
	return fmt.Sprintf("{%s vec=%#x}", r.Trigger, r.Vec)
}

// BitsPerRecord returns the storage cost of one record in bits at the
// given span: a 34-bit trigger block address plus span-1 vector bits
// (41 bits at span 8, matching Section 5.1).
func BitsPerRecord(span int) int { return trace.BlockAddrBits + span - 1 }

// RecordsPerCacheBlock returns how many records fit in a 64-byte cache
// block at the given span (12 at span 8, matching Section 4.2).
func RecordsPerCacheBlock(span int) int {
	return (trace.BlockBytes * 8) / BitsPerRecord(span)
}

// Builder collapses a retire-order stream of instruction block accesses
// into spatial region records ("the history generator core collapses
// retired instruction addresses by forming spatial regions", Section 4.1).
//
// The first access to a new region is the trigger; subsequent accesses to
// blocks within [trigger, trigger+span) set vector bits; the first access
// outside the region completes the record.
type Builder struct {
	span int
	cur  Region
	open bool
}

// NewBuilder creates a Builder with the given span (DefaultRegionSpan if 0).
func NewBuilder(span int) (*Builder, error) {
	if span == 0 {
		span = DefaultRegionSpan
	}
	if span < 2 || span > MaxRegionSpan {
		return nil, fmt.Errorf("history: region span %d out of [2,%d]", span, MaxRegionSpan)
	}
	return &Builder{span: span}, nil
}

// MustNewBuilder panics on config errors.
func MustNewBuilder(span int) *Builder {
	b, err := NewBuilder(span)
	if err != nil {
		panic(err)
	}
	return b
}

// Span returns the region span.
func (b *Builder) Span() int { return b.span }

// Add consumes one retired block access. If the access closes the current
// region, the completed record is returned with done=true.
func (b *Builder) Add(blk trace.BlockAddr) (completed Region, done bool) {
	if !b.open {
		b.cur = Region{Trigger: blk}
		b.open = true
		return Region{}, false
	}
	if blk == b.cur.Trigger {
		return Region{}, false
	}
	if blk > b.cur.Trigger {
		if off := uint64(blk - b.cur.Trigger); off < uint64(b.span) {
			b.cur.Vec |= 1 << (off - 1)
			return Region{}, false
		}
	}
	completed = b.cur
	b.cur = Region{Trigger: blk}
	return completed, true
}

// Flush completes and returns the in-progress region, if any.
func (b *Builder) Flush() (Region, bool) {
	if !b.open {
		return Region{}, false
	}
	b.open = false
	return b.cur, true
}

// Reset drops the in-progress region: the next access is a trigger.
func (b *Builder) Reset() { b.cur, b.open = Region{}, false }
