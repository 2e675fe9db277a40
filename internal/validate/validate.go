// Package validate centralizes the request-range rules shared by every
// front end of the simulator: the CLI option normalization (shift.Options),
// the shiftd wire-cell and figure-query validation, and the workload spec
// layer (internal/spec). Each front end previously spelled these checks
// out by hand, which let the three drift; they now share one table of
// constraints and differ only in how they render the offending field's
// name (wire cells quote JSON field names, figure queries use query
// parameter names).
package validate

import "fmt"

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

// Cell bundles the range-checked knobs shared by every front end. Field
// names follow the wire (JSON) spelling of shiftd's cellSpec, which is
// also the spelling the spec layer and the table-driven rejection test
// use.
type Cell struct {
	// Cores is the CMP size. Zero is accepted when CoresZeroInherits is
	// set (wire cells inherit the server's base); otherwise it is
	// range-checked like any other value.
	Cores int
	// CoresZeroInherits marks Cores==0 as "inherit the default" rather
	// than a value to range-check.
	CoresZeroInherits bool
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
// It is pure range validation: cross-field rules that depend on
// resolved defaults (the sampled-window fit) live in SampledWindow so
// callers can apply them after base-option inheritance.
func (c Cell) Check() *FieldError {
	if (c.Cores != 0 || !c.CoresZeroInherits) && (c.Cores < 1 || c.Cores > 16) {
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
	return nil
}

// SampledWindow rejects a sampling policy whose chunk (period x
// interval) does not fit at least twice in the measurement window — the
// simulator needs two measured intervals for a standard error. period
// <= 1 is exact simulation and always fits. The result names
// "sample_period"; callers rendering query parameters map the name.
func SampledWindow(period, interval, measure int64) *FieldError {
	if period <= 1 {
		return nil
	}
	if interval == 0 {
		interval = 500
	}
	if chunk := period * interval; measure < 2*chunk {
		return Fieldf("sample_period",
			"measurement window %d fits fewer than two sampling chunks (chunk is %d records: period %d x interval %d)",
			measure, chunk, period, interval)
	}
	return nil
}
