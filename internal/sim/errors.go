package sim

import "fmt"

// StreamShortError reports a run whose trace streams cannot supply —
// or, detected at runtime, did not supply — the requested
// warmup+measure window. It replaces the former silent behavior of
// measuring however many records the streams happened to produce,
// which made short windows look like valid (but wrong) results.
//
// Match it with errors.As:
//
//	var short *sim.StreamShortError
//	if errors.As(err, &short) { ... }
type StreamShortError struct {
	// Phase names where the shortage was detected: "validate" (a
	// reader declared its remaining supply up front via
	// trace.Supplier), "warmup", or "measure" (the stream ended
	// mid-phase). Exact and sampled runs report alike — the phase is the
	// part of the window the streams ran dry in, whatever the schedule
	// was doing there — and a stream dry exactly where the measure
	// window starts (at record 0 of a run without warmup, say) ran short
	// in "measure", having completed none of it.
	Phase string
	// Core is the offending core for upfront checks, or -1 when the
	// shortage was detected mid-run (all cores were already exhausted).
	// A single core whose stream ran dry while the others kept the
	// lockstep rounds going is found once the window is over: Phase
	// "measure", with that core's number.
	Core int
	// Need is the number of records per core the phase required: the
	// WarmupRecords of a "warmup" shortage, the MeasureRecords of a
	// "measure" one. For the validate phase, and for a single dry core
	// (Core >= 0), it is the whole warmup+measure window.
	Need int64
	// Have is the number of records available (validate), completed
	// within the phase (warmup/measure: records into the warmup, or into
	// the measure window), or consumed by the dry core over the whole
	// window (Core >= 0).
	Have int64
}

// Error implements error.
func (e *StreamShortError) Error() string {
	if e.Phase == "validate" {
		return fmt.Sprintf("sim: core %d stream supplies %d records, window needs %d",
			e.Core, e.Have, e.Need)
	}
	return fmt.Sprintf("sim: stream exhausted during %s after %d of %d records per core",
		e.Phase, e.Have, e.Need)
}
