package history

import (
	"testing"

	"shift/internal/trace"
)

// stampTable is the index table as it was before recency became
// positional: every entry carries an LRU stamp and its epoch, victims
// are found by scanning stamps, ways never move. Kept as the executable
// specification IndexTable is differentially tested against — do not
// optimize it.
type stampTable struct {
	sets  [][]stampEntry
	clock uint64
	epoch uint64
}

type stampEntry struct {
	trigger trace.BlockAddr
	pos     uint64
	lru     uint64
	epoch   uint64 // valid iff equal to the table's
}

func newStampTable(entries, assoc int) *stampTable {
	t := &stampTable{sets: make([][]stampEntry, entries/assoc), epoch: 1}
	for i := range t.sets {
		t.sets[i] = make([]stampEntry, assoc)
	}
	return t
}

// reset empties the table, as a Release → NewIndexTable does.
func (t *stampTable) reset() {
	t.epoch++
	t.clock = 0
}

func (t *stampTable) set(trigger trace.BlockAddr) []stampEntry {
	return t.sets[uint64(trigger)%uint64(len(t.sets))]
}

func (t *stampTable) Lookup(trigger trace.BlockAddr) (pos uint64, ok bool) {
	set := t.set(trigger)
	for i := range set {
		if set[i].epoch == t.epoch && set[i].trigger == trigger {
			t.clock++
			set[i].lru = t.clock
			return set[i].pos, true
		}
	}
	return 0, false
}

func (t *stampTable) Update(trigger trace.BlockAddr, pos uint64) {
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
	set[victim] = stampEntry{trigger: trigger, pos: pos, lru: t.clock, epoch: t.epoch}
}

func (t *stampTable) Len() int {
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

// TestIndexTableMatchesStampLRU drives the positional-LRU table and the
// stamp-LRU one with the same random Lookup/Update sequences — direct
// mapped, 4-way, 8-way over a set count that is not a power of two, and
// one set — and, every so often, a hand-back and re-take (the dirty-set
// reset that empties a recycled table). Every lookup result and Len must
// agree: where an entry sits in its set is the only freedom.
func TestIndexTableMatchesStampLRU(t *testing.T) {
	for _, shape := range []struct{ entries, assoc int }{{64, 1}, {64, 4}, {96, 8}, {4, 4}} {
		rng := trace.NewRNG(int64(shape.entries*31 + shape.assoc))
		ref := newStampTable(shape.entries, shape.assoc)
		opt := MustNewIndexTable(shape.entries, shape.assoc)
		// About three triggers per entry, using all 34 address bits.
		triggers := make([]trace.BlockAddr, 3*shape.entries)
		for i := range triggers {
			triggers[i] = trace.BlockAddr(rng.Uint64()) & trace.MaxBlockAddr
		}
		// Fill every set, at the largest position an entry holds, and hand
		// the table back: it must come back empty, not with these entries
		// revived.
		for _, trig := range triggers {
			opt.Update(trig, MaxWrites-1)
		}
		if pos, ok := opt.Lookup(triggers[len(triggers)-1]); !ok || pos != MaxWrites-1 {
			t.Fatalf("%v: Lookup after Update(%d) = (%d,%v)", shape, MaxWrites-1, pos, ok)
		}
		opt.Release()
		if again := MustNewIndexTable(shape.entries, shape.assoc); again == opt {
			if n := again.Len(); n != 0 {
				t.Fatalf("%v: recycled table holds %d entries", shape, n)
			}
			for _, trig := range triggers {
				if pos, ok := again.Lookup(trig); ok {
					t.Fatalf("%v: recycled table finds %v at %d", shape, trig, pos)
				}
			}
			again.Release()
		}
		opt = MustNewIndexTable(shape.entries, shape.assoc)
		recycled := false
		for op := 0; op < 40000; op++ {
			trig := triggers[rng.Intn(len(triggers))]
			switch r := rng.Intn(1000); {
			case r == 0:
				opt.Release()
				again := MustNewIndexTable(shape.entries, shape.assoc)
				recycled = recycled || again == opt
				opt = again
				ref.reset()
			case r < 500:
				gp, gok := opt.Lookup(trig)
				wp, wok := ref.Lookup(trig)
				if gp != wp || gok != wok {
					t.Fatalf("%v op %d: Lookup(%v) = (%d,%v), stamp-LRU reference (%d,%v)", shape, op, trig, gp, gok, wp, wok)
				}
			default:
				pos := rng.Uint64() % MaxWrites
				opt.Update(trig, pos)
				ref.Update(trig, pos)
			}
			if op%512 == 0 && opt.Len() != ref.Len() {
				t.Fatalf("%v op %d: Len %d, stamp-LRU reference %d", shape, op, opt.Len(), ref.Len())
			}
		}
		if !recycled {
			t.Errorf("%v: NewIndexTable never returned the released table: the dirty-set reset is not exercised", shape)
		}
	}
}

// Test-only operations: only this package's tests call these, so they
// live in a test file rather than in the product.

// Len returns the number of valid entries.
func (t *IndexTable) Len() int {
	n := 0
	for _, e := range t.tab {
		if e != 0 {
			n++
		}
	}
	return n
}
