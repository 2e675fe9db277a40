// Package validate holds the error type every refusal of a caller's input
// carries: a FieldError names the offending field in its canonical (JSON
// wire) spelling. The rules themselves live where the input becomes
// something: a cell's ranges in the simulator (sim.RunSpec.Validate) and
// in shift.Config's resolution (Config.Validate, the one check the library,
// the CLI, shiftd's cells and figure queries and a cluster worker all
// call), a spec document's in internal/spec. Front ends differ only in
// how they render the field's name (wire cells quote JSON field names,
// figure queries use query parameter names).
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
