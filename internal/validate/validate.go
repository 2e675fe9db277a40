// Package validate centralizes the request-range rules shared by every
// front end of the simulator: the option normalization (shift.Options)
// behind the CLI and shiftd's figure queries, shiftd's wire cells, and the
// workload spec layer (internal/spec). Each front end previously spelled
// these checks out by hand, which let the three drift; they now share one
// table of constraints and differ only in how they render the offending
// field's name (wire cells quote JSON field names, figure queries use
// query parameter names).
package validate

import (
	"fmt"

	"shift/internal/history"
)

// FieldError is a validation failure naming the offending field. Field
// is the canonical (JSON wire) name — "cores", "sample_warmup", ... —
// and Msg the human-readable constraint. Front ends unwrap it to render
// the field in their own naming convention; the default rendering is
// "field: msg".
type FieldError struct {
	// Field is the canonical wire name of the offending field.
	Field string
	// Msg states the violated constraint, e.g. "must be in [1,16], got 20".
	Msg string
}

// Error implements error.
func (e *FieldError) Error() string { return e.Field + ": " + e.Msg }

// Fieldf builds a FieldError with a formatted message.
func Fieldf(field, format string, args ...any) *FieldError {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// MaxHistEntries bounds a history-capacity override: twice Figure 6's
// largest point (512 K records). A larger one would only ask the host
// for tables it cannot allocate.
const MaxHistEntries = 1 << 20

// Cell bundles the range-checked knobs shared by every front end, as
// resolved values: a front end that lets a field inherit a default fills
// it in before checking. Field names follow the wire (JSON) spelling of
// shiftd's cellSpec, which is also the spelling the spec layer and the
// table-driven rejection test use.
type Cell struct {
	// Cores is the CMP size.
	Cores int
	// HistEntries is the history-capacity override (0 = design default).
	HistEntries int
	// ElimProb is the Figure 1 miss-elimination probability.
	ElimProb float64
	// WarmupRecords and MeasureRecords are the per-core window lengths.
	WarmupRecords, MeasureRecords int64
	// SamplePeriod and SampleInterval are the interval-sampling policy
	// knobs (0 = default/disabled).
	SamplePeriod, SampleInterval int64
	// SampleWarmup is the detailed-warmup fraction of each sampled
	// interval (must be in [0,1)).
	SampleWarmup float64
	// SampleConfidence is the error-bound confidence level (0, 0.90,
	// 0.95, or 0.99).
	SampleConfidence float64
}

// Check returns the first violated constraint as a *FieldError, or nil.
// Besides the ranges, a sampling policy's chunk (period x interval, the
// interval 500 records when 0) must fit at least twice in the
// measurement window — the simulator needs two measured intervals for a
// standard error — which is why the values must be resolved ones. A
// period <= 1 is exact simulation and always fits.
func (c Cell) Check() *FieldError {
	if c.Cores < 1 || c.Cores > 16 {
		return Fieldf("cores", "must be in [1,16], got %d", c.Cores)
	}
	if c.HistEntries < 0 || c.HistEntries > MaxHistEntries {
		return Fieldf("hist_entries", "must be in [0,%d], got %d", MaxHistEntries, c.HistEntries)
	}
	if c.ElimProb < 0 || c.ElimProb > 1 {
		return Fieldf("elim_prob", "must be in [0,1], got %g", c.ElimProb)
	}
	if c.WarmupRecords < 0 {
		return Fieldf("warmup_records", "must be >= 0, got %d", c.WarmupRecords)
	}
	if c.MeasureRecords < 0 {
		return Fieldf("measure_records", "must be >= 0, got %d", c.MeasureRecords)
	}
	// The window is bounded because a history appends at most one record
	// a round and numbers each in 30 bits. Each field is bounded before
	// the sum is taken, so it cannot overflow.
	if c.WarmupRecords > history.MaxWrites {
		return Fieldf("warmup_records", "must be at most %d, got %d", history.MaxWrites, c.WarmupRecords)
	}
	if c.MeasureRecords > history.MaxWrites || c.WarmupRecords+c.MeasureRecords > history.MaxWrites {
		return Fieldf("measure_records", "warmup_records + measure_records must be at most %d, got %d + %d",
			history.MaxWrites, c.WarmupRecords, c.MeasureRecords)
	}
	if c.SamplePeriod < 0 {
		return Fieldf("sample_period", "must be >= 0, got %d", c.SamplePeriod)
	}
	if c.SampleInterval < 0 {
		return Fieldf("sample_interval", "must be >= 0, got %d", c.SampleInterval)
	}
	if c.SampleWarmup < 0 || c.SampleWarmup >= 1 {
		return Fieldf("sample_warmup", "must be in [0,1), got %g", c.SampleWarmup)
	}
	switch c.SampleConfidence {
	case 0, 0.90, 0.95, 0.99:
	default:
		return Fieldf("sample_confidence", "must be one of 0.90, 0.95, 0.99, got %g", c.SampleConfidence)
	}
	if c.SamplePeriod <= 1 {
		return nil
	}
	interval := c.SampleInterval
	if interval == 0 {
		interval = 500
	}
	if chunk := c.SamplePeriod * interval; c.MeasureRecords < 2*chunk {
		return Fieldf("sample_period",
			"measurement window %d fits fewer than two sampling chunks (chunk is %d records: period %d x interval %d)",
			c.MeasureRecords, chunk, c.SamplePeriod, interval)
	}
	return nil
}
