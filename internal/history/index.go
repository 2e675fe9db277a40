package history

import (
	"fmt"
	"math/bits"

	"shift/internal/freelist"
	"shift/internal/trace"
)

// IndexTable maps trigger instruction-block addresses to the absolute
// history-buffer position of their most recent occurrence (Section 4.1:
// "each entry is tagged with a trigger instruction block address and
// stores a pointer to that block's most recent occurrence").
//
// It is organized as a set-associative, LRU-replaced structure so that
// the capacity-limited design points of the paper (PIF's 8K-entry and
// 512-entry index tables) behave like the hardware they model.
//
// Recency is positional: a set's live entries are its first ones, in
// MRU→LRU order, so a touch moves the entry to the front and the victim
// is always the last way. An entry is one word — the trigger's bits above
// the set index over posBits bits of position + 1, 0 meaning empty — so
// an 8-way set is one 64-byte host cache line and every geometry fits,
// one set included (34 + 30 bits).
type IndexTable struct {
	assoc int
	tab   []uint64 // nsets * assoc, set-major
	nsets uint64
	// setBits is log2(nsets) when the set count is a power of two (all
	// paper design points), so the set index and tag are a mask and a
	// shift, sparing an integer division on the simulator's hot path;
	// -1 otherwise.
	setBits int
	// dirty holds one bit per set, set when an Update writes the set, so
	// emptying the table for its next owner clears just those sets.
	dirty []uint64
}

// posBits is the width of an entry's position field, which holds
// position + 1: positions run below MaxWrites.
const posBits = 30

const posMask = 1<<posBits - 1

// tableShape is the geometry released tables are kept by.
type tableShape struct{ entries, assoc int }

// freeTables holds released tables by shape; see IndexTable.Release.
var freeTables = freelist.New[tableShape, IndexTable]("index_table")

// newIndexTable returns an empty table with `entries` total entries and
// the given associativity, reusing the storage of a released table of
// that shape when one is held.
func newIndexTable(entries, assoc int) (*IndexTable, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("history: index entries %d <= 0", entries)
	}
	if assoc <= 0 || entries%assoc != 0 {
		return nil, fmt.Errorf("history: index assoc %d does not divide entries %d", assoc, entries)
	}
	t := freeTables.Get(tableShape{entries, assoc})
	if t == nil {
		nsets := entries / assoc
		t = &IndexTable{assoc: assoc, nsets: uint64(nsets), tab: make([]uint64, entries),
			setBits: -1, dirty: make([]uint64, (nsets+63)/64)}
		if nsets&(nsets-1) == 0 {
			t.setBits = bits.TrailingZeros(uint(nsets))
		}
	}
	t.reset()
	return t, nil
}

// reset empties the sets written since the last reset.
func (t *IndexTable) reset() {
	for wi, w := range t.dirty {
		for ; w != 0; w &= w - 1 {
			base := (wi<<6 | bits.TrailingZeros64(w)) * t.assoc
			clear(t.tab[base : base+t.assoc])
		}
		t.dirty[wi] = 0
	}
}

// Release hands t's storage back for a later NewIndexTable of the same
// shape. The caller must hold the only reference to t and must not use
// it again.
func (t *IndexTable) Release() { freeTables.Put(tableShape{len(t.tab), t.assoc}, t) }

// MustNewIndexTable panics on config errors.
func MustNewIndexTable(entries, assoc int) *IndexTable {
	t, err := newIndexTable(entries, assoc)
	if err != nil {
		panic(err)
	}
	return t
}

// set returns trigger's set index and tag: the set index's bits taken
// off the trigger.
func (t *IndexTable) set(trigger trace.BlockAddr) (si, tag uint64) {
	if t.setBits >= 0 {
		return uint64(trigger) & (t.nsets - 1), uint64(trigger) >> t.setBits
	}
	return uint64(trigger) % t.nsets, uint64(trigger) / t.nsets
}

// ways returns set si's ways.
func (t *IndexTable) ways(si uint64) []uint64 {
	base := int(si) * t.assoc
	return t.tab[base : base+t.assoc]
}

// find returns the way of set holding tag, or -1. An empty way is 0,
// which no live entry is (its position field is at least 1).
func find(set []uint64, tag uint64) int {
	for i, e := range set {
		if e>>posBits == tag && e != 0 {
			return i
		}
	}
	return -1
}

// touch makes e the MRU entry of set, moving the i entries ahead of way
// i one way back; whatever way i held is overwritten.
func touch(set []uint64, i int, e uint64) {
	for ; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = e
}

// Lookup returns the stored history position for trigger.
func (t *IndexTable) Lookup(trigger trace.BlockAddr) (pos uint64, ok bool) {
	si, tag := t.set(trigger)
	set := t.ways(si)
	i := find(set, tag)
	if i < 0 {
		return 0, false
	}
	e := set[i]
	touch(set, i, e)
	return e&posMask - 1, true
}

// Update points trigger at pos, allocating (and possibly evicting LRU)
// as needed. pos must be below MaxWrites.
func (t *IndexTable) Update(trigger trace.BlockAddr, pos uint64) {
	si, tag := t.set(trigger)
	set := t.ways(si)
	way := find(set, tag)
	if way < 0 {
		way = len(set) - 1 // a miss overwrites the last way: empty, or the LRU
	}
	touch(set, way, tag<<posBits|(pos+1))
	t.dirty[si>>6] |= 1 << (si & 63)
}
