package history

import (
	"fmt"

	"shift/internal/freelist"
	"shift/internal/trace"
)

// Buffer is the circular history buffer of spatial region records
// (Section 4.1: "The history buffer, logically organized as a circular
// buffer, maintains the stream of retired instructions as a queue of
// spatial region records").
//
// Positions are absolute (monotonically increasing), so a stale index
// pointer to an overwritten entry is detected rather than silently
// replaying unrelated records.
//
// A record is held the way the paper stores it, as one word: the trigger
// block address above the bit vector (34 + 15 bits at MaxRegionSpan). The
// ring is sized by what a run writes, not by what it models: a buffer
// built for a window of W records allocates min(capacity, W) words, so a
// 32K-record history costs 256 KB of host memory only in a run that
// writes 32K records or more, and a 500 + 500-record cell 8 KB.
type Buffer struct {
	records  []uint64 // min(capacity, window) words, by position modulo capacity
	capacity uint64   // modelled record capacity
	next     uint64   // absolute position of the next write
}

// MaxWrites is the most records a Buffer takes: every position is below
// it, so an IndexTable entry holds position + 1 in posBits bits and a
// virtualized history's LLC tag pointer fits 32. A history appends at most
// one record a round, so a run's window of records per core is bounded by
// it too (sim.RunSpec.validate).
const MaxWrites = 1<<posBits - 1

// vecBits is the width of the vector field of a packed record: all of
// Region.Vec, so packing loses nothing of a record whose trigger is a
// block address.
const vecBits = 16

func pack(r Region) uint64 { return uint64(r.Trigger)<<vecBits | uint64(r.Vec) }

func unpack(w uint64) Region {
	return Region{Trigger: trace.BlockAddr(w >> vecBits), Vec: uint16(w)}
}

// freeBuffers holds released buffers by allocated length; see
// Buffer.Release.
var freeBuffers freelist.Keyed[int, Buffer]

// NewBuffer returns an empty history buffer with the given record
// capacity for a run that appends at most writes records (0: no bound,
// so the whole capacity). It allocates min(capacity, writes) words, or
// reuses the storage of a released buffer of that length. Rewinding the
// write pointer is the whole reset: Valid already hides every record at
// or past it.
func NewBuffer(capacity, writes int) (*Buffer, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("history: buffer capacity %d <= 0", capacity)
	}
	if writes < 0 {
		return nil, fmt.Errorf("history: buffer writes %d < 0", writes)
	}
	n := capacity
	if writes > 0 {
		n = min(n, writes)
	}
	b := freeBuffers.Get(n)
	if b == nil {
		b = &Buffer{records: make([]uint64, n)}
	}
	b.capacity, b.next = uint64(capacity), 0
	return b, nil
}

// Release hands b's storage back for a later NewBuffer of the same
// allocated length. The caller must hold the only reference to b and must
// not use it again.
func (b *Buffer) Release() { freeBuffers.Put(len(b.records), b) }

// WritePos returns the absolute position the next Append will write to
// (the paper's write pointer).
func (b *Buffer) WritePos() uint64 { return b.next }

// Append stores r and returns its absolute position. It panics at
// MaxWrites records, and past the window the buffer was built for.
func (b *Buffer) Append(r Region) uint64 {
	pos := b.next
	if pos >= MaxWrites {
		panic("history: a buffer takes at most MaxWrites records")
	}
	b.records[pos%b.capacity] = pack(r)
	b.next++
	return pos
}

// Valid reports whether pos still refers to live (not yet overwritten)
// history.
func (b *Buffer) Valid(pos uint64) bool {
	if pos >= b.next {
		return false
	}
	return b.next-pos <= b.capacity
}

// Read returns the record at absolute position pos.
func (b *Buffer) Read(pos uint64) (Region, bool) {
	if !b.Valid(pos) {
		return Region{}, false
	}
	return unpack(b.records[pos%b.capacity]), true
}

// ReadSeq appends up to n consecutive records starting at pos to dst,
// stopping at the write pointer or at the first invalid position. It
// returns the extended slice and the position after the last record read.
func (b *Buffer) ReadSeq(dst []Region, pos uint64, n int) ([]Region, uint64) {
	for i := 0; i < n; i++ {
		r, ok := b.Read(pos)
		if !ok {
			break
		}
		dst = append(dst, r)
		pos++
	}
	return dst, pos
}

// Len returns the number of live records (saturates at capacity).
func (b *Buffer) Len() int { return int(min(b.next, b.capacity)) }
