package area

import (
	"math"
	"strings"
	"testing"

	"shift/internal/cpu"
)

func TestPIFStorageMatchesPaper(t *testing.T) {
	// Section 5.1: history 32K*41b = 164KB; index 8K*49b = 49KB.
	bytes := PIFStorageBytes(32768, 8192)
	kb := float64(bytes) / 1024
	if kb < 210 || kb > 216 {
		t.Errorf("PIF_32K storage = %.1fKB, want ~213KB", kb)
	}
	// And the area anchor: 0.9mm².
	a := PIFAreaPerCoreMM2(32768, 8192)
	if math.Abs(a-0.9) > 0.02 {
		t.Errorf("PIF area = %.3f mm², want ~0.9", a)
	}
}

func TestSHIFTIndexMatchesPaper(t *testing.T) {
	// Section 4.2: 8MB LLC, 15-bit pointer per tag => 240KB.
	b := SHIFTIndexBytes()
	kb := float64(b) / 1024
	if kb != 240 {
		t.Errorf("SHIFT index = %vKB, want 240KB", kb)
	}
	a := SHIFTTotalAreaMM2()
	if math.Abs(a-0.96) > 0.01 {
		t.Errorf("SHIFT area = %.3f mm², want ~0.96 (Section 5.6)", a)
	}
}

func TestAggregatePIFvsSHIFT(t *testing.T) {
	// Section 5.6: PIF_32K costs 14.4mm² across 16 cores vs SHIFT 0.96mm².
	agg := PIFAreaPerCoreMM2(32768, 8192) * 16
	if math.Abs(agg-14.4) > 0.3 {
		t.Errorf("aggregate PIF area = %.2f, want ~14.4", agg)
	}
	ratio := agg / SHIFTTotalAreaMM2()
	// The abstract's "14x less storage cost".
	if ratio < 13 || ratio > 16 {
		t.Errorf("area ratio = %.1fx, want ~14-15x", ratio)
	}
}

func TestVirtualizedPIFLLCBytes(t *testing.T) {
	// Section 6.2: virtualizing PIF's per-core histories needs ~2.7MB.
	b := VirtualizedPIFLLCBytes(32768)
	mb := float64(b) / (1024 * 1024)
	if mb < 2.5 || mb > 2.9 {
		t.Errorf("virtualized PIF = %.2fMB, want ~2.7MB", mb)
	}
}

func TestCoreAreas(t *testing.T) {
	if coreAreaMM2(cpu.FatOoO) != 25.0 || coreAreaMM2(cpu.LeanOoO) != 4.5 || coreAreaMM2(cpu.LeanIO) != 1.3 {
		t.Error("core areas do not match Section 2.3")
	}
}

func TestPDRegions(t *testing.T) {
	// Section 2.3's qualitative result: PIF (0.9mm²/core, +23%) gains PD
	// on a Xeon but loses on an A8 (+17%).
	fat := Evaluate("PIF on Fat-OoO", cpu.FatOoO, 0.9, 1.23)
	if fat.PD() <= 1 {
		t.Errorf("PIF on Fat-OoO PD = %.3f, want >1", fat.PD())
	}
	io := Evaluate("PIF on Lean-IO", cpu.LeanIO, 0.9, 1.17)
	if io.PD() >= 1 {
		t.Errorf("PIF on Lean-IO PD = %.3f, want <1", io.PD())
	}
	if !strings.Contains(fat.String(), "PD") {
		t.Error("String format")
	}
	if (DesignPoint{RelArea: 0}).PD() != 0 {
		t.Error("degenerate PD should be 0")
	}
}

func TestRelAreaComputation(t *testing.T) {
	d := Evaluate("x", cpu.LeanIO, 1.3, 1.0) // prefetcher as big as the core
	if math.Abs(d.RelArea-2.0) > 1e-9 {
		t.Errorf("RelArea = %v, want 2.0", d.RelArea)
	}
}

func TestPowerModel(t *testing.T) {
	m := DefaultEnergyModel()
	// A representative 16-core SHIFT activity profile over 1e9 cycles
	// (0.5s at 2GHz): ~60M history ops, ~25M index updates with ~4 hops
	// round trip each.
	act := Activity{
		HistReads: 25e6, HistReadHops: 100e6,
		HistWrites: 5e6, HistWriteHops: 20e6,
		IndexUpdates: 12e6, IndexUpdateHops: 48e6,
		Cycles: 1e9,
	}
	mw := m.PowerMW(act)
	if mw <= 0 {
		t.Fatalf("power = %v", mw)
	}
	// Section 5.7: "less than 150mW in total for a 16-core CMP".
	if mw >= 150 {
		t.Errorf("SHIFT power = %.1f mW, want < 150", mw)
	}
	if m.PowerMW(Activity{}) != 0 {
		t.Error("zero-cycle activity should be 0 power")
	}
}

func TestSRAMAreaLinear(t *testing.T) {
	if dataSRAMAreaMM2(2048) != 2*dataSRAMAreaMM2(1024) {
		t.Error("data SRAM area not linear")
	}
	if tagSRAMAreaMM2(0) != 0 {
		t.Error("zero bytes should be zero area")
	}
}
