package history

import (
	"fmt"

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
// MRU→LRU order, so a touch moves the entry to the front, the victim is
// always the last way, and an entry is two words — a 4-way set is one
// 64-byte host cache line.
type IndexTable struct {
	assoc int
	tab   []idxEntry // nsets * assoc, set-major
	nsets uint64
	// epoch is the table's current life: an entry is live only while the
	// epoch in its key matches, so emptying the table for its next owner
	// is one increment instead of a walk over every set.
	epoch uint64
	// setMask accelerates the set index when the set count is a power
	// of two (all paper design points): trigger&setMask ≡ trigger%sets,
	// sparing an integer division on the simulator's hot path. Zero
	// when the set count is not a power of two.
	setMask uint64

	lookups int64
	hits    int64
}

// idxEntry is one way: key is the trigger block address above the epoch
// it was written in (one compare decides tag match and liveness), pos
// the history position.
type idxEntry struct {
	key uint64
	pos uint64
}

// epochBits is what a key has left below a block address.
const epochBits = 64 - trace.BlockAddrBits

// tableShape is the geometry released tables are kept by.
type tableShape struct{ entries, assoc int }

// freeTables holds released tables by shape; see IndexTable.Release.
var freeTables freelist.Keyed[tableShape, IndexTable]

// NewIndexTable returns an empty table with `entries` total entries and
// the given associativity, reusing the storage of a released table of
// that shape when one is held.
func NewIndexTable(entries, assoc int) (*IndexTable, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("history: index entries %d <= 0", entries)
	}
	if assoc <= 0 || entries%assoc != 0 {
		return nil, fmt.Errorf("history: index assoc %d does not divide entries %d", assoc, entries)
	}
	t := freeTables.Get(tableShape{entries, assoc})
	if t == nil {
		nsets := entries / assoc
		t = &IndexTable{assoc: assoc, nsets: uint64(nsets), tab: make([]idxEntry, entries)}
		if nsets&(nsets-1) == 0 {
			t.setMask = uint64(nsets - 1)
		}
	}
	// Zeroed entries carry epoch 0, so the first life starts at 1 — and
	// so does the one after the epoch field is used up.
	if t.epoch++; t.epoch == 1<<epochBits {
		clear(t.tab)
		t.epoch = 1
	}
	t.lookups, t.hits = 0, 0
	return t, nil
}

// Release hands t's storage back for a later NewIndexTable of the same
// shape. The caller must hold the only reference to t and must not use
// it again.
func (t *IndexTable) Release() { freeTables.Put(tableShape{len(t.tab), t.assoc}, t) }

// MustNewIndexTable panics on config errors.
func MustNewIndexTable(entries, assoc int) *IndexTable {
	t, err := NewIndexTable(entries, assoc)
	if err != nil {
		panic(err)
	}
	return t
}

// Cap returns the total entry capacity.
func (t *IndexTable) Cap() int { return len(t.tab) }

// set returns trigger's set and the key a live entry for it carries.
func (t *IndexTable) set(trigger trace.BlockAddr) ([]idxEntry, uint64) {
	si := uint64(trigger) & t.setMask
	if t.setMask == 0 && t.nsets > 1 {
		si = uint64(trigger) % t.nsets
	}
	base := int(si) * t.assoc
	return t.tab[base : base+t.assoc], uint64(trigger)<<epochBits | t.epoch
}

// touch makes e the MRU entry of set, moving the i entries ahead of way
// i one way back; whatever way i held is overwritten.
func touch(set []idxEntry, i int, e idxEntry) {
	for ; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = e
}

// Lookup returns the stored history position for trigger.
func (t *IndexTable) Lookup(trigger trace.BlockAddr) (pos uint64, ok bool) {
	t.lookups++
	set, key := t.set(trigger)
	for i := range set {
		if set[i].key == key {
			t.hits++
			pos = set[i].pos
			touch(set, i, set[i])
			return pos, true
		}
	}
	return 0, false
}

// Update points trigger at pos, allocating (and possibly evicting LRU)
// as needed.
func (t *IndexTable) Update(trigger trace.BlockAddr, pos uint64) {
	set, key := t.set(trigger)
	way := len(set) - 1 // a miss overwrites the last way: dead, or the LRU
	for i := range set {
		if set[i].key == key {
			way = i
			break
		}
	}
	touch(set, way, idxEntry{key: key, pos: pos})
}

// Len returns the number of valid entries.
func (t *IndexTable) Len() int {
	n := 0
	for _, e := range t.tab {
		if e.key&(1<<epochBits-1) == t.epoch {
			n++
		}
	}
	return n
}

// HitRate returns the fraction of lookups that hit (1.0 if none yet).
func (t *IndexTable) HitRate() float64 {
	if t.lookups == 0 {
		return 1
	}
	return float64(t.hits) / float64(t.lookups)
}
