// Package area provides the analytical area, energy, and performance-
// density models behind the paper's cost analyses: Section 2.3 / Figure 2
// (performance density of PIF on three core types), Section 5.1 (storage
// budgets), Section 5.6 (PD of SHIFT vs PIF), Section 5.7 (power), and
// Section 6.2 (virtualized per-core PIF cost).
//
// The paper used CACTI 6.0 at 40nm plus published core areas. CACTI is
// not reproducible here, so this package uses linear SRAM density and
// per-event energy constants *calibrated to the paper's published
// anchors*, each documented at its definition:
//
//   - 213KB of PIF storage = 0.9 mm^2  =>  ~0.00422 mm^2/KB (data SRAM);
//   - 240KB of LLC tag extension = 0.96 mm^2 total SHIFT cost
//     =>  0.004 mm^2/KB (tag SRAM);
//   - SHIFT's LLC+NoC activity < 150 mW on a 16-core CMP.
package area

import (
	"fmt"

	"shift/internal/cpu"
	"shift/internal/trace"
)

// SRAM densities at 40nm, calibrated to the paper's anchors.
const (
	// dataSRAMMM2PerKB reproduces "213KB ... occupies 0.9mm2": 0.9/213.
	dataSRAMMM2PerKB = 0.9 / 213.0
	// tagSRAMMM2PerKB reproduces SHIFT's "0.96mm2 in total" for the
	// 240KB index embedded in the LLC tag array: 0.96/240.
	tagSRAMMM2PerKB = 0.96 / 240.0
)

// dataSRAMAreaMM2 returns the area of a data SRAM of the given size.
func dataSRAMAreaMM2(bytes int64) float64 {
	return float64(bytes) / 1024 * dataSRAMMM2PerKB
}

// tagSRAMAreaMM2 returns the area of a tag SRAM of the given size.
func tagSRAMAreaMM2(bytes int64) float64 {
	return float64(bytes) / 1024 * tagSRAMMM2PerKB
}

// coreAreaMM2 returns the core+L1 area at 40nm (Section 2.3: Xeon 25mm²,
// Cortex-A15 4.5mm², Cortex-A8 1.3mm²).
func coreAreaMM2(t cpu.CoreType) float64 { return cpu.ParamsFor(t).AreaMM2 }

// PIFStorageBytes returns the per-core PIF storage (history + index) for
// the given record/entry counts at the paper's record geometry
// (41-bit records, 49-bit index entries): 213KB at 32K/8K.
func PIFStorageBytes(histEntries, indexEntries int) int64 {
	const recordBits, indexBits = 41, 49
	bits := int64(histEntries)*recordBits + int64(indexEntries)*indexBits
	return bits / 8
}

// PIFAreaPerCoreMM2 returns the per-core PIF area (0.9mm² at 32K/8K).
func PIFAreaPerCoreMM2(histEntries, indexEntries int) float64 {
	return dataSRAMAreaMM2(PIFStorageBytes(histEntries, indexEntries))
}

// TableICores is the core count of Table I's CMP, the one the paper
// quotes its storage and area costs for. Its LLC is 512KB a core.
const TableICores = 16

// SHIFTIndexBytes returns the LLC tag-array extension cost: one 15-bit
// pointer per line of Table I's LLC (240KB for its 8MB; Section 4.2
// "Hardware cost").
func SHIFTIndexBytes() int64 {
	lines := int64(TableICores * 512 * 1024 / trace.BlockBytes)
	return lines * 15 / 8
}

// SHIFTTotalAreaMM2 returns SHIFT's total CMP-wide area cost on Table I's
// CMP: the tag extension only, since history records live inside
// existing LLC data lines ("the only source of meaningful area overhead
// in SHIFT is due to the index table appended to the LLC tag array").
func SHIFTTotalAreaMM2() float64 {
	return tagSRAMAreaMM2(SHIFTIndexBytes())
}

// VirtualizedPIFLLCBytes returns the LLC capacity a virtualized *per-core*
// PIF would consume on Table I's CMP (Section 6.2: "2.7MB of LLC capacity
// ... grows linearly with the number of cores"): per-core history records
// packed into cache lines, times TableICores.
func VirtualizedPIFLLCBytes(histEntries int) int64 {
	const recordBits = 41
	recordsPerLine := int64(trace.BlockBytes * 8 / recordBits) // 12
	lines := (int64(histEntries) + recordsPerLine - 1) / recordsPerLine
	return lines * trace.BlockBytes * TableICores
}

// DesignPoint is one point of the Figure 2 / Section 5.6 PD analysis.
type DesignPoint struct {
	// Name labels the point ("PIF_32K on Lean-IO").
	Name string
	// RelPerf is performance relative to the no-prefetch baseline core.
	RelPerf float64
	// RelArea is (core + prefetcher) area over core area.
	RelArea float64
}

// PD returns performance density relative to the baseline core
// (RelPerf / RelArea); >1 lands in the paper's shaded "PD gain" region.
func (d DesignPoint) PD() float64 {
	if d.RelArea <= 0 {
		return 0
	}
	return d.RelPerf / d.RelArea
}

// Evaluate builds a design point for a prefetcher of the given per-core
// area cost achieving the given speedup on the given core type.
func Evaluate(name string, t cpu.CoreType, prefetcherAreaPerCore, speedup float64) DesignPoint {
	coreArea := coreAreaMM2(t)
	return DesignPoint{
		Name:    name,
		RelPerf: speedup,
		RelArea: (coreArea + prefetcherAreaPerCore) / coreArea,
	}
}

// String formats a design point like the paper's PD discussion.
func (d DesignPoint) String() string {
	return fmt.Sprintf("%s: perf %.3fx, area %.3fx, PD %.3f", d.Name, d.RelPerf, d.RelArea, d.PD())
}
