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
type IndexTable struct {
	assoc   int
	sets    [][]idxEntry
	clock   uint64
	entries int
	// epoch is the table's current life: an entry is valid only while
	// its epoch matches, so emptying the table for its next owner is one
	// increment instead of a walk over every set.
	epoch uint64
	// setMask accelerates the set index when the set count is a power
	// of two (all paper design points): trigger&setMask ≡ trigger%sets,
	// sparing an integer division on the simulator's hot path. Zero
	// when the set count is not a power of two.
	setMask uint64

	lookups int64
	hits    int64
}

type idxEntry struct {
	trigger trace.BlockAddr
	pos     uint64
	lru     uint64
	epoch   uint64 // valid iff equal to the table's
}

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
		t = &IndexTable{assoc: assoc, entries: entries, sets: make([][]idxEntry, nsets)}
		if nsets&(nsets-1) == 0 {
			t.setMask = uint64(nsets - 1)
		}
		backing := make([]idxEntry, entries)
		for i := range t.sets {
			t.sets[i] = backing[i*assoc : (i+1)*assoc]
		}
	}
	// Zeroed entries carry epoch 0, so the first life starts at 1.
	t.epoch++
	t.clock, t.lookups, t.hits = 0, 0, 0
	return t, nil
}

// Release hands t's storage back for a later NewIndexTable of the same
// shape. The caller must hold the only reference to t and must not use
// it again.
func (t *IndexTable) Release() { freeTables.Put(tableShape{t.entries, t.assoc}, t) }

// MustNewIndexTable panics on config errors.
func MustNewIndexTable(entries, assoc int) *IndexTable {
	t, err := NewIndexTable(entries, assoc)
	if err != nil {
		panic(err)
	}
	return t
}

// Cap returns the total entry capacity.
func (t *IndexTable) Cap() int { return t.entries }

func (t *IndexTable) set(trigger trace.BlockAddr) []idxEntry {
	if t.setMask != 0 || len(t.sets) == 1 {
		return t.sets[uint64(trigger)&t.setMask]
	}
	return t.sets[uint64(trigger)%uint64(len(t.sets))]
}

// Lookup returns the stored history position for trigger.
func (t *IndexTable) Lookup(trigger trace.BlockAddr) (pos uint64, ok bool) {
	t.lookups++
	set := t.set(trigger)
	for i := range set {
		if set[i].epoch == t.epoch && set[i].trigger == trigger {
			t.clock++
			set[i].lru = t.clock
			t.hits++
			return set[i].pos, true
		}
	}
	return 0, false
}

// Update points trigger at pos, allocating (and possibly evicting LRU)
// as needed.
func (t *IndexTable) Update(trigger trace.BlockAddr, pos uint64) {
	set := t.set(trigger)
	t.clock++
	victim := 0
	var victimLRU uint64 = ^uint64(0)
	for i := range set {
		valid := set[i].epoch == t.epoch
		if valid && set[i].trigger == trigger {
			set[i].pos = pos
			set[i].lru = t.clock
			return
		}
		if !valid {
			victim, victimLRU = i, 0
		} else if set[i].lru < victimLRU {
			victim, victimLRU = i, set[i].lru
		}
	}
	set[victim] = idxEntry{trigger: trigger, pos: pos, lru: t.clock, epoch: t.epoch}
}

// Len returns the number of valid entries.
func (t *IndexTable) Len() int {
	n := 0
	for _, set := range t.sets {
		for i := range set {
			if set[i].epoch == t.epoch {
				n++
			}
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
