package bpred

import (
	"fmt"
	"testing"

	"shift/internal/trace"
)

func TestCounter2Saturates(t *testing.T) {
	c := counter2(0)
	c = c.update(false)
	if c != 0 {
		t.Errorf("counter underflowed: %d", c)
	}
	c = counter2(3)
	c = c.update(true)
	if c != 3 {
		t.Errorf("counter overflowed: %d", c)
	}
	c = counter2(1)
	if c.taken() {
		t.Error("1 should predict not-taken")
	}
	c = c.update(true)
	if !c.taken() {
		t.Error("2 should predict taken")
	}
}

func TestNewRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -4, 3, 1000} {
		if _, err := NewHybrid(n); err == nil {
			t.Errorf("NewHybrid(%d) accepted", n)
		}
	}
}

// hybridReference is Hybrid's naive twin: the separate-byte-table
// formulation Hybrid's packed layout must be identical to. The bimodal,
// the gshare (with its global history register) and the chooser each
// keep one byte per 2-bit counter.
type hybridReference struct {
	bimodal, gshare, chooser []counter2
	// mask selects an index; the history register keeps as many bits.
	mask, history uint64

	predictions, mispredicts int64
}

func newHybridReference(entries int) *hybridReference {
	r := &hybridReference{
		bimodal: make([]counter2, entries), gshare: make([]counter2, entries), chooser: make([]counter2, entries),
		mask: uint64(entries - 1),
	}
	for i := range r.bimodal {
		r.bimodal[i], r.gshare[i], r.chooser[i] = 1, 1, 2 // weakly not-taken; weakly prefer gshare
	}
	return r
}

// predictUpdate predicts the branch at pc from the component the chooser
// prefers, then trains the chooser toward the right component when they
// disagree, both components, and the history.
func (r *hybridReference) predictUpdate(pc trace.Addr, taken bool) bool {
	i := (uint64(pc) >> 2) & r.mask
	gi := ((uint64(pc) >> 2) ^ r.history) & r.mask
	bp, gp := r.bimodal[i].taken(), r.gshare[gi].taken()
	chosen := bp
	if r.chooser[i].taken() {
		chosen = gp
	}
	r.predictions++
	if chosen != taken {
		r.mispredicts++
	}
	if bp != gp {
		r.chooser[i] = r.chooser[i].update(gp == taken)
	}
	r.bimodal[i] = r.bimodal[i].update(taken)
	r.gshare[gi] = r.gshare[gi].update(taken)
	r.history <<= 1
	if taken {
		r.history |= 1
	}
	r.history &= r.mask
	return chosen
}

// TestHybridMatchesReference drives Hybrid and its naive twin with seeded
// random branch streams — a few hundred branch sites, each biased, some
// alternating — and requires every prediction and both counts to match,
// at the smallest size, a mid size and Table I's 16K entries, and on a
// predictor reused through Release → NewHybrid.
func TestHybridMatchesReference(t *testing.T) {
	run := func(name string, h *Hybrid, entries int, seed int64) {
		t.Helper()
		ref := newHybridReference(entries)
		rng := trace.NewRNG(seed)
		const sites = 300
		bias := make([]float64, sites)
		for s := range bias {
			bias[s] = float64(rng.Intn(11)) / 10
		}
		last := make([]bool, sites)
		for n := 0; n < 50000; n++ {
			s := rng.Intn(sites)
			pc := trace.Addr(0x400000 + 4*s*37)
			taken := rng.Bool(bias[s])
			if s%7 == 0 { // an alternating site: history-predictable only
				taken = !last[s]
			}
			last[s] = taken
			if got, want := h.PredictUpdate(pc, taken), ref.predictUpdate(pc, taken); got != want {
				t.Fatalf("%s: branch %d (pc %#x, taken %v): predicted %v, reference %v", name, n, pc, taken, got, want)
			}
		}
		if h.Predictions() != ref.predictions || h.Mispredicts() != ref.mispredicts {
			t.Errorf("%s: predictions/mispredicts %d/%d, reference %d/%d",
				name, h.Predictions(), h.Mispredicts(), ref.predictions, ref.mispredicts)
		}
	}
	for i, entries := range []int{16, 4096, 16384} {
		run(fmt.Sprintf("fresh %d", entries), MustNewHybrid(entries), entries, int64(11+i))
	}
	// A released predictor's tables come back trained; NewHybrid must
	// return them to the untrained state.
	h := MustNewHybrid(4096)
	run("before release", h, 4096, 21)
	h.Release()
	run("reused", MustNewHybrid(4096), 4096, 22)
}

func TestHybridBeatsWorstComponent(t *testing.T) {
	h := MustNewHybrid(4096)
	// Mix: one strongly biased branch plus one alternating branch.
	biased, alt := trace.Addr(0x100), trace.Addr(0x204)
	correct, total := 0, 0
	rng := trace.NewRNG(9)
	altState := false
	for i := 0; i < 20000; i++ {
		var pc trace.Addr
		var taken bool
		if rng.Bool(0.5) {
			pc, taken = biased, true
		} else {
			altState = !altState
			pc, taken = alt, altState
		}
		predicted := h.PredictUpdate(pc, taken)
		if i > 4000 {
			total++
			if predicted == taken {
				correct++
			}
		}
	}
	// The random interleaving pollutes gshare's global history, so the
	// alternating branch is only partially predictable; 0.8 is well above
	// what either component alone achieves on this mix.
	acc := float64(correct) / float64(total)
	if acc < 0.8 {
		t.Errorf("hybrid accuracy %.3f < 0.8", acc)
	}
	if h.Predictions() != 20000 || h.Mispredicts() <= 0 || h.Mispredicts() >= 10000 {
		t.Errorf("predictions/mispredicts %d/%d after 20000 branches", h.Predictions(), h.Mispredicts())
	}
}

func TestMustNewHybridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewHybrid should panic on bad size")
		}
	}()
	MustNewHybrid(3)
}

func TestTableIPredictorSize(t *testing.T) {
	// Table I: 16K gShare & 16K bimodal.
	if _, err := NewHybrid(16384); err != nil {
		t.Fatalf("Table I predictor rejected: %v", err)
	}
}
