// Package bpred implements the branch predictor of the simulated fetch
// unit, Hybrid (Table I: "Hybrid branch predictor (16K gShare & 16K
// bimodal)"). Its 16K-entry gShare, 16K-entry bimodal and the chooser
// between them are components of Hybrid, not predictors of their own.
//
// In this reproduction the predictor's role is to set the frontend's
// branch-misprediction bubble rate in the timing model (the paper records
// prefetcher history at *retire* order precisely so that wrong-path
// fetches never pollute it; see PIF). The predictor is nonetheless
// implemented fully so the frontend model is driven by measured, not
// assumed, accuracy.
package bpred

import (
	"fmt"

	"shift/internal/freelist"
	"shift/internal/trace"
)

// counter2 is a 2-bit saturating counter. 0-1 predict not-taken, 2-3 taken.
type counter2 uint8

func (c counter2) taken() bool { return c >= 2 }

func (c counter2) update(taken bool) counter2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// gshareTable is Hybrid's gShare component: it XORs a global history
// register into the PC index. Counters are packed 32 per word (2 bits each), quartering the table's cache
// footprint with identical predictions.
type gshareTable struct {
	bits    []uint64
	mask    uint64
	history uint64
	histLen uint
}

// allocGShare sizes the tables for `entries` counters (a power of two);
// reset gives them their untrained content.
func allocGShare(entries int) *gshareTable {
	g := &gshareTable{bits: make([]uint64, (entries+31)/32), mask: uint64(entries - 1)}
	for n := entries; n > 1; n >>= 1 {
		g.histLen++
	}
	return g
}

// reset returns the predictor to its untrained state.
func (g *gshareTable) reset() {
	for i := range g.bits {
		g.bits[i] = 0x5555555555555555 // every counter 1: weakly not-taken
	}
	g.history = 0
}

func (g *gshareTable) index(pc trace.Addr) uint64 {
	return ((uint64(pc) >> 2) ^ g.history) & g.mask
}

// counter returns the 2-bit counter at index i.
func (g *gshareTable) counter(i uint64) counter2 {
	return counter2(g.bits[i>>5] >> ((i & 31) * 2) & 3)
}

// setCounter stores the 2-bit counter at index i.
func (g *gshareTable) setCounter(i uint64, c counter2) {
	shift := (i & 31) * 2
	g.bits[i>>5] = g.bits[i>>5]&^(3<<shift) | uint64(c)<<shift
}

// predictAt returns the prediction and the index it used, for callers
// that train the same entry immediately (Hybrid.PredictUpdate).
func (g *gshareTable) predictAt(pc trace.Addr) (taken bool, i uint64) {
	i = g.index(pc)
	return g.counter(i).taken(), i
}

// updateAt trains the counter at index i and shifts the resolved
// direction into the global history register.
func (g *gshareTable) updateAt(i uint64, taken bool) {
	g.setCounter(i, g.counter(i).update(taken))
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.history &= (1 << g.histLen) - 1
}

// Hybrid combines bimodal and gshare with a chooser table of 2-bit
// counters (the Table I fetch-unit predictor).
//
// Layout is optimized for the simulator's per-record path, with behavior
// identical to the separate-byte-table formulation:
//
//   - the bimodal and chooser counters share a PC index, so they are
//     fused into one 4-bit nibble (bits 0-1 bimodal, bits 2-3 chooser)
//     — one random load serves both;
//   - the gshare table packs 32 2-bit counters per word;
//
// which shrinks a 16K-entry predictor from 48KB of byte counters to
// 12KB, small enough that sixteen cores' predictors stay resident in the
// host cache.
type Hybrid struct {
	gshare *gshareTable
	// bc packs 16 bimodal+chooser nibbles per word.
	bc   []uint64
	mask uint64

	predictions int64
	mispredicts int64
}

// freeHybrids holds released predictors by entry count; see
// Hybrid.Release.
var freeHybrids = freelist.New[int, Hybrid]("predictor")

// NewHybrid builds the Table I predictor: 16K gshare, 16K bimodal, 16K
// chooser when entries=16384. It reuses the tables of a released
// predictor of that size when one is held. Training is per record and
// leaves no trail of what it wrote, so the reset refills the whole
// tables (12 KB at Table I's size).
func NewHybrid(entries int) (*Hybrid, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("bpred: hybrid entries %d not a positive power of two", entries)
	}
	h := freeHybrids.Get(entries)
	if h == nil {
		h = &Hybrid{gshare: allocGShare(entries), bc: make([]uint64, (entries+15)/16), mask: uint64(entries - 1)}
	}
	h.gshare.reset()
	// Every entry: bimodal=1 (weakly not-taken), chooser=2 (weakly
	// prefer gshare) → nibble 0b1001.
	for i := range h.bc {
		h.bc[i] = 0x9999999999999999
	}
	h.predictions, h.mispredicts = 0, 0
	return h, nil
}

// Release hands h's tables back for a later NewHybrid of the same size.
// The caller must hold the only reference to h and must not use it
// again.
func (h *Hybrid) Release() { freeHybrids.Put(int(h.mask)+1, h) }

// MustNewHybrid panics on config errors.
func MustNewHybrid(entries int) *Hybrid {
	h, err := NewHybrid(entries)
	if err != nil {
		panic(err)
	}
	return h
}

func (h *Hybrid) index(pc trace.Addr) uint64 { return (uint64(pc) >> 2) & h.mask }

// nibble returns the packed bimodal and chooser counters at index i.
func (h *Hybrid) nibble(i uint64) (bim, ch counter2) {
	nib := h.bc[i>>4] >> ((i & 15) * 4)
	return counter2(nib & 3), counter2(nib >> 2 & 3)
}

// setNibble stores the counters back at index i.
func (h *Hybrid) setNibble(i uint64, bim, ch counter2) {
	shift := (i & 15) * 4
	word := h.bc[i>>4] &^ (0xF << shift)
	h.bc[i>>4] = word | (uint64(ch)<<2|uint64(bim))<<shift
}

// PredictUpdate predicts the branch at pc, then trains both components
// and the chooser with the resolved direction, in a single pass: the
// component predictions and table indices are computed once. It returns
// the (pre-update) prediction.
func (h *Hybrid) PredictUpdate(pc trace.Addr, taken bool) (predicted bool) {
	i := h.index(pc)
	bim, ch := h.nibble(i)
	bp := bim.taken()
	// Fused gshare predict+update: the prediction and the training hit
	// the same packed table word, so it is loaded once.
	g := h.gshare
	gp, gi := g.predictAt(pc)
	chosen := bp
	if ch.taken() {
		chosen = gp
	}
	h.predictions++
	if chosen != taken {
		h.mispredicts++
	}
	// Chooser trains toward whichever component was right when they
	// disagree.
	if bp != gp {
		ch = ch.update(gp == taken)
	}
	h.setNibble(i, bim.update(taken), ch)
	g.updateAt(gi, taken)
	return chosen
}

// Mispredicts returns the misprediction count.
func (h *Hybrid) Mispredicts() int64 { return h.mispredicts }

// Predictions returns the prediction count.
func (h *Hybrid) Predictions() int64 { return h.predictions }
