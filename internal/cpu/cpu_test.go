package cpu

import "testing"

func TestCoreTypeNames(t *testing.T) {
	if FatOoO.String() != "Fat-OoO" || LeanOoO.String() != "Lean-OoO" || LeanIO.String() != "Lean-IO" {
		t.Error("core type names do not match the paper")
	}
	if CoreType(9).String() == "" {
		t.Error("unknown type should format")
	}
	if !LeanOoO.Valid() || CoreType(9).Valid() {
		t.Error("Valid wrong")
	}
}

func TestTableIParams(t *testing.T) {
	fat := ParamsFor(FatOoO)
	if fat.Width != 4 || fat.ROB != 128 || fat.LSQ != 32 || fat.AreaMM2 != 25.0 {
		t.Errorf("Fat-OoO params %+v do not match Table I", fat)
	}
	lean := ParamsFor(LeanOoO)
	if lean.Width != 3 || lean.ROB != 60 || lean.LSQ != 16 || lean.AreaMM2 != 4.5 {
		t.Errorf("Lean-OoO params %+v do not match Table I", lean)
	}
	io := ParamsFor(LeanIO)
	if io.Width != 2 || io.AreaMM2 != 1.3 {
		t.Errorf("Lean-IO params %+v do not match Table I", io)
	}
	// In-order cores expose the full stall.
	if io.StallExposure != 1.0 {
		t.Errorf("Lean-IO exposure = %v, want 1.0", io.StallExposure)
	}
	// Fatter cores hide more and have lower base CPI.
	if !(fat.StallExposure < lean.StallExposure && lean.StallExposure < io.StallExposure) {
		t.Error("exposure should increase as cores get leaner")
	}
	if !(fat.BaseCPI < lean.BaseCPI && lean.BaseCPI < io.BaseCPI) {
		t.Error("base CPI should increase as cores get leaner")
	}
}

func TestParamsForPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ParamsFor should panic on unknown type")
		}
	}()
	ParamsFor(CoreType(42))
}

func TestClockRetire(t *testing.T) {
	c := NewClock(LeanIO) // BaseCPI 1.10
	c.Retire(1000)
	if c.Instructions() != 1000 {
		t.Errorf("Instructions = %d", c.Instructions())
	}
	// 1000 instrs at CPI 1.10 ≈ 1100 cycles (fixed-point rounding ≤ 1).
	if got := c.Now(); got < 1098 || got > 1101 {
		t.Errorf("Now = %d, want ~1100", got)
	}
	if ipc := float64(c.Instructions()) / float64(c.Now()); ipc < 0.89 || ipc > 0.92 {
		t.Errorf("IPC = %v, want ~1/1.1", ipc)
	}
}

func TestClockFixedPointPrecision(t *testing.T) {
	// One instruction at a time must accumulate the same cycles as bulk.
	a, b := NewClock(LeanOoO), NewClock(LeanOoO)
	for i := 0; i < 10000; i++ {
		a.Retire(1)
	}
	b.Retire(10000)
	if a.Now() != b.Now() {
		t.Errorf("incremental %d != bulk %d", a.Now(), b.Now())
	}
}

func TestClockFetchStallExposure(t *testing.T) {
	io := NewClock(LeanIO)
	io.FetchStall(100)
	if io.FetchStallCycles() != 100 {
		t.Errorf("in-order exposed %d of 100", io.FetchStallCycles())
	}
	fat := NewClock(FatOoO)
	fat.FetchStall(100)
	if fat.FetchStallCycles() != 55 {
		t.Errorf("Fat-OoO exposed %d, want 55", fat.FetchStallCycles())
	}
	// Zero and negative stalls are no-ops.
	before := fat.Now()
	fat.FetchStall(0)
	fat.FetchStall(-5)
	if fat.Now() != before {
		t.Error("non-positive stall changed the clock")
	}
}

func TestClockMispredict(t *testing.T) {
	c := NewClock(LeanOoO)
	c.Retire(10)
	before := c.Now()
	c.Mispredict()
	if got, want := c.Now()-before, int64(ParamsFor(LeanOoO).MispredictPenalty); got != want {
		t.Errorf("a mispredict advanced the clock by %d cycles, want the penalty %d", got, want)
	}
}

// TestFetchStallFraction checks the accounting internal/sim's results read:
// exposed fetch-stall cycles are a share of all cycles (Now), beside the
// retired instructions.
func TestFetchStallFraction(t *testing.T) {
	c := NewClock(LeanIO)
	if c.Now() != 0 || c.FetchStallCycles() != 0 || c.Instructions() != 0 {
		t.Error("a new clock has counted cycles")
	}
	c.Retire(1000) // ~1100 cycles
	c.FetchStall(1100)
	if c.FetchStallCycles() != 1100 {
		t.Errorf("FetchStallCycles = %d, want 1100", c.FetchStallCycles())
	}
	f := float64(c.FetchStallCycles()) / float64(c.Now())
	if f < 0.45 || f > 0.55 {
		t.Errorf("stall share = %v, want ~0.5", f)
	}
}
