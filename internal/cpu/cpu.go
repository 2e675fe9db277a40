// Package cpu provides the timing models of the three core
// microarchitectures the paper evaluates (Table I and Section 2.3):
//
//   - Fat-OoO: a Xeon-class 4-wide out-of-order core (25 mm²);
//   - Lean-OoO: an ARM Cortex-A15-class 3-wide out-of-order core (4.5 mm²);
//   - Lean-IO: an ARM Cortex-A8-class 2-wide in-order core (1.3 mm²).
//
// The model is deliberately frontend-centric, matching what the paper
// measures: cycles accrue from (a) a base CPI capturing backend execution
// of low-ILP server code, (b) instruction-fetch stalls whose exposure
// depends on how much latency the core's window can hide, and (c) branch
// misprediction refill bubbles. Absolute IPC is not claimed — only the
// relative effect of removing fetch stalls, which is what Figures 1, 8
// and 10 report.
package cpu

import "fmt"

// CoreType selects a core microarchitecture.
type CoreType int

const (
	// LeanOoO is the ARM Cortex-A15-class core used for the paper's main
	// performance results (Section 5.1: "We model a tiled SHIFT
	// architecture with a lean-OoO core modeled after an ARM-Cortex A15").
	LeanOoO CoreType = iota
	// FatOoO is the Xeon-class core.
	FatOoO
	// LeanIO is the ARM Cortex-A8-class in-order core.
	LeanIO
	coreTypeCount
)

var coreTypeNames = [...]string{"Lean-OoO", "Fat-OoO", "Lean-IO"}

// String names the core type as in the paper.
func (t CoreType) String() string {
	if int(t) < len(coreTypeNames) {
		return coreTypeNames[t]
	}
	return fmt.Sprintf("CoreType(%d)", int(t))
}

// Valid reports whether t is a defined core type.
func (t CoreType) Valid() bool { return t >= 0 && t < coreTypeCount }

// Params are the microarchitectural and model parameters of a core type.
type Params struct {
	// Width is dispatch/retirement width (Table I).
	Width int
	// ROB is the reorder buffer capacity (Table I; 0 for in-order).
	ROB int
	// LSQ is the load/store queue capacity (Table I; 0 for in-order).
	LSQ int
	// AreaMM2 is the core+L1 area at 40nm (Section 2.3).
	AreaMM2 float64
	// BaseCPI is the cycles/instruction of the backend on low-ILP server
	// code with a perfect frontend.
	BaseCPI float64
	// StallExposure is the fraction of an instruction-fetch stall the
	// core cannot hide (1.0 for in-order; OoO cores overlap some of the
	// front-end bubble with draining the window).
	StallExposure float64
	// MispredictPenalty is the pipeline refill bubble in cycles.
	MispredictPenalty int
}

// ParamsFor returns the model parameters for t.
func ParamsFor(t CoreType) Params {
	switch t {
	case FatOoO:
		return Params{Width: 4, ROB: 128, LSQ: 32, AreaMM2: 25.0,
			BaseCPI: 0.60, StallExposure: 0.55, MispredictPenalty: 14}
	case LeanOoO:
		return Params{Width: 3, ROB: 60, LSQ: 16, AreaMM2: 4.5,
			BaseCPI: 0.80, StallExposure: 0.75, MispredictPenalty: 12}
	case LeanIO:
		return Params{Width: 2, ROB: 0, LSQ: 0, AreaMM2: 1.3,
			BaseCPI: 1.10, StallExposure: 1.00, MispredictPenalty: 8}
	default:
		panic(fmt.Sprintf("cpu: unknown core type %d", t))
	}
}

// fpShift is the fixed-point fraction width of the cycle accumulator.
const fpShift = 10

// Clock accumulates one core's cycles in fixed point so fractional base
// CPI contributions do not lose precision over billions of instructions.
type Clock struct {
	p        Params
	cyclesFP int64
	instrs   int64

	baseFP     int64 // precomputed BaseCPI in fixed point
	fetchStall int64 // whole cycles of exposed fetch stall
}

// NewClock builds a cycle accumulator for core type t.
func NewClock(t CoreType) *Clock {
	p := ParamsFor(t)
	return &Clock{p: p, baseFP: int64(p.BaseCPI * (1 << fpShift))}
}

// Retire accounts n retired instructions of backend work.
func (c *Clock) Retire(n int) {
	c.instrs += int64(n)
	c.cyclesFP += int64(n) * c.baseFP
}

// FetchStall accounts an instruction-fetch stall of `cycles`, scaled by
// the core's exposure factor.
func (c *Clock) FetchStall(cycles int64) {
	if cycles <= 0 {
		return
	}
	exposed := int64(float64(cycles)*c.p.StallExposure + 0.5)
	c.cyclesFP += exposed << fpShift
	c.fetchStall += exposed
}

// Mispredict accounts one branch misprediction bubble.
func (c *Clock) Mispredict() {
	c.cyclesFP += int64(c.p.MispredictPenalty) << fpShift
}

// Now returns the current cycle (whole cycles).
func (c *Clock) Now() int64 { return c.cyclesFP >> fpShift }

// Instructions returns retired instructions.
func (c *Clock) Instructions() int64 { return c.instrs }

// FetchStallCycles returns total exposed fetch-stall cycles.
func (c *Clock) FetchStallCycles() int64 { return c.fetchStall }
