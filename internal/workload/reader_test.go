package workload

import (
	"testing"

	"shift/internal/trace"
)

// TestSegmentsFixedPerType verifies that a request type's segment
// sequence is identical across cores — the basis of cross-core stream
// commonality.
func TestSegmentsFixedPerType(t *testing.T) {
	w, err := New(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.segments) != smallParams().RequestTypes {
		t.Fatalf("segments = %d, want %d", len(w.segments), smallParams().RequestTypes)
	}
	for rt, seg := range w.segments {
		if len(seg) < 6 || len(seg) > 8 {
			t.Errorf("type %d has %d segments, want 6-8", rt, len(seg))
		}
		for _, fi := range seg {
			if fi < 2 || fi >= len(w.funcs) {
				t.Errorf("type %d segment %d out of range", rt, fi)
			}
		}
	}
}

// TestStaticSkipsAreStable verifies the always-taken branches are a
// property of the program, not of the execution: two traversals of the
// same function must take identical skips.
func TestStaticSkipsAreStable(t *testing.T) {
	p := smallParams()
	p.SkipProb = 0.3
	w, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	skips := 0
	for fi, f := range w.funcs {
		for b, m := range w.meta[f.meta : f.meta+f.blocks] {
			if m.skip == 0 {
				continue
			}
			skips++
			if m.skip < 2 || m.skip > 3 {
				t.Errorf("func %d pos %d: skip %d out of [2,3]", fi, b, m.skip)
			}
			if b+int(m.skip) >= int(f.blocks) {
				t.Errorf("func %d pos %d: skip %d exits the function", fi, b, m.skip)
			}
			if m.site != -1 {
				t.Errorf("func %d pos %d: both call site and skip", fi, b)
			}
		}
	}
	if skips == 0 {
		t.Error("no static skips with SkipProb=0.3")
	}
}

// TestCoreBiasDeterministicPerCore verifies that a biased call site
// always resolves the same way for a given core, and differently across
// at least some cores.
func TestCoreBiasDeterministicPerCore(t *testing.T) {
	p := smallParams()
	p.CoreBias = 1.0 // every call site biased
	p.VaryProb = 0
	p.TrapRate = 0
	p.SchedProb = 0
	w, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	// Two fresh readers for the same core must agree exactly.
	a, b := w.NewCoreReader(2), w.NewCoreReader(2)
	for i := 0; i < 20000; i++ {
		ra, _ := a.Next()
		rb, _ := b.Next()
		if ra.Block != rb.Block {
			t.Fatalf("same core diverged at record %d", i)
		}
	}
}

// TestTrapNeverNests verifies OS handlers do not take traps themselves.
func TestTrapNeverNests(t *testing.T) {
	p := smallParams()
	p.TrapRate = 0.2 // aggressive
	w, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	r := w.NewCoreReader(0)
	inOS := false
	for i := 0; i < 50000; i++ {
		rec, _ := r.Next()
		isOS := rec.Block >= osBaseBlock
		if isOS && rec.Kind == trace.KindTrap && inOS {
			t.Fatal("trap taken inside a trap handler")
		}
		inOS = isOS
	}
}

// TestSkipRaisesDiscontinuity verifies the SkipProb knob moves the
// sequential fraction in the right direction.
func TestSkipRaisesDiscontinuity(t *testing.T) {
	seqFrac := func(skip float64) float64 {
		p := smallParams()
		p.SkipProb = skip
		w, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		st, err := trace.Measure(trace.Limit(w.NewCoreReader(0), 100000), 0)
		if err != nil {
			t.Fatal(err)
		}
		return st.SeqFraction()
	}
	low, high := seqFrac(0.0), seqFrac(0.35)
	if high >= low {
		t.Errorf("SkipProb 0.35 seq fraction %.3f >= SkipProb 0 %.3f", high, low)
	}
}

// TestLoopWeightRaisesInstrs verifies the LoopWeight knob raises
// instructions per block visit (the MPKI calibration lever).
func TestLoopWeightRaisesInstrs(t *testing.T) {
	ipv := func(lw float64) float64 {
		p := smallParams()
		p.LoopWeight = lw
		w, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		st, err := trace.Measure(trace.Limit(w.NewCoreReader(0), 50000), 0)
		if err != nil {
			t.Fatal(err)
		}
		return float64(st.Instructions) / float64(st.Records)
	}
	if ipv(0.6) <= ipv(0.0)*1.3 {
		t.Error("LoopWeight 0.6 did not clearly raise instructions per visit")
	}
}

// TestRequestZipfSkewsMix verifies the Zipf knob concentrates the request
// mix: under skew, the hot request type's segment functions are visited
// far more often than the coldest type's.
func TestRequestZipfSkewsMix(t *testing.T) {
	p := smallParams()
	p.RequestZipf = 1.2
	p.TrapRate = 0
	p.SchedProb = 0
	w, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	hot := w.funcs[w.segments[0][0]]
	cold := w.funcs[w.segments[p.RequestTypes-1][0]]
	r := w.NewCoreReader(0)
	hotVisits, coldVisits := 0, 0
	for i := 0; i < 200000; i++ {
		rec, _ := r.Next()
		if rec.Block == trace.BlockAddr(hot.entry) {
			hotVisits++
		}
		if rec.Block == trace.BlockAddr(cold.entry) {
			coldVisits++
		}
	}
	// The entries may be shared across types via calls, so only require a
	// clear asymmetry, not an exact ratio.
	if hotVisits <= coldVisits {
		t.Errorf("hot type entry visited %d <= cold %d under Zipf skew", hotVisits, coldVisits)
	}
}
