// Package spec implements declarative workload specifications: small
// JSON documents that compile into the simulator's native workload
// forms (workload.Params, core groups, workload.Source). A spec
// composes the existing synthetic-workload primitives — catalog bases,
// parameter overrides, footprint scaling, phase sequences, multi-client
// mixes — and can replay externally recorded instruction traces through
// the trace codec.
//
// The contract mirrors the rest of the simulator:
//
//   - Validation is up front and field-named: every rejection is a
//     *validate.FieldError naming the offending field ("phases[2].records",
//     "workload.scale", ...), never a panic, so front ends (shiftsim,
//     shiftd's 400s) render precise errors.
//   - Compiled specs are deterministic per seed: the same document and
//     seed produce bit-identical record streams, in standalone and
//     batched runs alike.
//   - Identity is content-addressed: a compiled spec's ID embeds a hash
//     of its normalized form (and, for trace replay, the trace file
//     bytes), so spec-driven cells memoize, batch, and sample through
//     the existing Config.Key/StreamKey machinery with no special
//     cases.
//
// Load parses a document, normalizes it to a fully-explicit fixed point
// (catalog bases and scaling folded into concrete fields) and compiles
// it into a runnable form.
package spec

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"

	"shift/internal/validate"
	"shift/internal/workload"
)

// Spec-level bounds. These are deliberately stricter than
// workload.Params.Validate (which trusts programmatic callers): specs
// arrive from untrusted documents, and the bounds keep a validated spec
// cheap enough to build and run.
const (
	// maxNameLen bounds spec, client, and workload names.
	maxNameLen = 64
	// maxPhases bounds the phase sequence length.
	maxPhases = 64
	// maxPhaseRecords bounds one phase's per-core length.
	maxPhaseRecords = 1_000_000_000
	// maxClients bounds a mix; it cannot exceed the CMP size anyway.
	maxClients = 16
	// maxTracePaths bounds the per-core recordings of a replay spec.
	maxTracePaths = 16
	// maxPathLen bounds one trace path.
	maxPathLen = 4096
	// footprint bounds (bytes). The lower bounds match workload.Validate;
	// the upper bounds cap the block-graph build cost.
	minFootprint   = 16 * 64
	maxFootprint   = 64 << 20
	minOSFootprint = 4 * 64
	maxOSFootprint = 8 << 20
	// Remaining generator-knob caps.
	maxRequestTypes   = 4096
	maxRequestZipf    = 8
	maxFuncBlocksMean = 1024
	maxCallDepth      = 64
	// maxScale bounds the footprint-scaling factor.
	minScale = 0.01
	maxScale = 16
)

// Spec is the top-level workload specification. Exactly one of
// Workload, Phases, Mix, and Trace must be set; Name and Seed apply to
// whichever is.
type Spec struct {
	// Name is the display name: figure rows and results render it where
	// catalog runs render the catalog workload name. It also appears in
	// the compiled spec's ID.
	Name string `json:"name"`
	// Seed is the base RNG seed; 0 means 1. Per-workload seed overrides
	// take precedence.
	Seed int64 `json:"seed,omitempty"`
	// Workload is a single homogeneous workload on all cores.
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// Phases is a time-varying workload: each phase runs for its record
	// count per core, then the stream moves to the next, cycling.
	Phases []PhaseSpec `json:"phases,omitempty"`
	// Mix consolidates the CMP: each client runs its own workload on its
	// own cores (the Section 4.3 / Figure 10 form). The client core
	// counts pin the spec to their total.
	Mix []ClientSpec `json:"mix,omitempty"`
	// Trace replays externally recorded instruction traces (the
	// trace codec's binary format) instead of generating records.
	Trace *TraceSpec `json:"trace,omitempty"`
}

// WorkloadSpec describes one synthetic workload as a catalog base (or
// the built-in neutral template), an optional footprint scale, and
// field overrides. Normalization folds base and scale into explicit
// fields; in normalized form Base and Scale are empty and every field
// is set.
type WorkloadSpec struct {
	// Base names a catalog workload to start from; empty starts from the
	// neutral template.
	Base string `json:"base,omitempty"`
	// Scale multiplies the footprints (workload.Scaled) before field
	// overrides apply; 0 means unscaled.
	Scale float64 `json:"scale,omitempty"`
	// Seed overrides the spec-level seed for this workload.
	Seed *int64 `json:"seed,omitempty"`

	// The remaining fields override the corresponding workload.Params
	// knobs; nil leaves the base (or template) value in place. See the
	// workload package for each knob's semantics.

	// FootprintBytes is the application instruction footprint.
	FootprintBytes *int `json:"footprint_bytes,omitempty"`
	// OSFootprintBytes is the OS/trap-handler instruction footprint.
	OSFootprintBytes *int `json:"os_footprint_bytes,omitempty"`
	// RequestTypes is the number of distinct request handlers.
	RequestTypes *int `json:"request_types,omitempty"`
	// RequestZipf skews request-type popularity (0 = uniform).
	RequestZipf *float64 `json:"request_zipf,omitempty"`
	// FuncBlocksMean is the mean function size in cache blocks.
	FuncBlocksMean *int `json:"func_blocks_mean,omitempty"`
	// CallDepth is the typical call-graph depth of a request.
	CallDepth *int `json:"call_depth,omitempty"`
	// CallSiteDensity is the fraction of blocks containing a call site.
	CallSiteDensity *float64 `json:"call_site_density,omitempty"`
	// VaryProb is the per-visit control-flow variation probability.
	VaryProb *float64 `json:"vary_prob,omitempty"`
	// SkipProb is the probability of skipping a callee entirely.
	SkipProb *float64 `json:"skip_prob,omitempty"`
	// CoreBias skews request dispatch toward a core's preferred types.
	CoreBias *float64 `json:"core_bias,omitempty"`
	// TrapRate is the per-record OS trap probability.
	TrapRate *float64 `json:"trap_rate,omitempty"`
	// SchedProb is the context-switch probability at trap boundaries.
	SchedProb *float64 `json:"sched_prob,omitempty"`
	// LoopWeight is the share of loop-heavy code in the footprint.
	LoopWeight *float64 `json:"loop_weight,omitempty"`
}

// PhaseSpec is one phase of a time-varying workload.
type PhaseSpec struct {
	// Workload is the phase's workload.
	Workload WorkloadSpec `json:"workload"`
	// Records is the phase's per-core length in trace records.
	Records int64 `json:"records"`
}

// ClientSpec is one client of a consolidated mix.
type ClientSpec struct {
	// Name labels the client; empty defaults to "client<i>" (1-based).
	Name string `json:"name,omitempty"`
	// Cores is the client's core count; the mix's total pins the
	// configuration's core count.
	Cores int `json:"cores"`
	// Workload is the client's workload.
	Workload WorkloadSpec `json:"workload"`
}

// TraceSpec replays recorded instruction traces. Exactly one of Path
// and Paths must be set; normalization folds Path into Paths. With
// fewer recordings than cores, core i replays recording i mod len.
type TraceSpec struct {
	// Path is a single recording replayed on every core.
	Path string `json:"path,omitempty"`
	// Paths are per-core recordings.
	Paths []string `json:"paths,omitempty"`
}

// parse decodes a spec document: strict JSON whose root is an object.
// Any other root, unknown fields and type mismatches are rejected with
// field-named errors. parse does not validate ranges — call normalize
// (or compile, which normalizes) next.
func parse(data []byte) (*Spec, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 || trimmed[0] != '{' {
		return nil, validate.Fieldf("json", "a spec is a JSON object")
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	s := &Spec{}
	if err := dec.Decode(s); err != nil {
		return nil, jsonFieldError(err)
	}
	// Trailing garbage after the document object.
	if dec.More() {
		return nil, validate.Fieldf("json", "unexpected content after document")
	}
	return s, nil
}

// jsonFieldError converts encoding/json decode failures into
// field-named errors.
func jsonFieldError(err error) *validate.FieldError {
	if te, ok := err.(*json.UnmarshalTypeError); ok {
		field := te.Field
		if field == "" {
			field = "spec"
		}
		return validate.Fieldf(field, "expected %s, got %s", te.Type, te.Value)
	}
	msg := err.Error()
	if name, ok := strings.CutPrefix(msg, `json: unknown field `); ok {
		name = strings.Trim(name, `"`)
		if name == "" {
			return validate.Fieldf("json", "unknown field with empty name")
		}
		return validate.Fieldf(name, "unknown field")
	}
	return validate.Fieldf("json", "%s", msg)
}

// normalize validates s and rewrites it into its fully-explicit
// canonical form: the default seed made explicit, catalog bases and
// scale factors folded into concrete workload fields, client names
// filled in, Path folded into Paths. normalize is a fixed point —
// normalizing an already-normalized spec changes nothing — which makes
// the canonical JSON form (and therefore the compiled ID) stable under
// marshal/parse round trips.
func (s *Spec) normalize() error {
	if err := checkName("name", s.Name); err != nil {
		return err
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	n := 0
	for _, set := range []bool{s.Workload != nil, len(s.Phases) > 0, len(s.Mix) > 0, s.Trace != nil} {
		if set {
			n++
		}
	}
	if n != 1 {
		return validate.Fieldf("spec", "exactly one of workload, phases, mix, trace must be set, got %d", n)
	}
	switch {
	case s.Workload != nil:
		if _, err := resolveWorkload(s.Workload, s.Name, s.Seed, "workload"); err != nil {
			return err
		}
	case len(s.Phases) > 0:
		if len(s.Phases) > maxPhases {
			return validate.Fieldf("phases", "at most %d phases, got %d", maxPhases, len(s.Phases))
		}
		for i := range s.Phases {
			p := &s.Phases[i]
			field := fieldIndex("phases", i)
			if p.Records < 1 || p.Records > maxPhaseRecords {
				return validate.Fieldf(field+".records", "must be in [1,%d], got %d", int64(maxPhaseRecords), p.Records)
			}
			if _, err := resolveWorkload(&p.Workload, s.Name, s.Seed, field+".workload"); err != nil {
				return err
			}
		}
	case len(s.Mix) > 0:
		if len(s.Mix) > maxClients {
			return validate.Fieldf("mix", "at most %d clients, got %d", maxClients, len(s.Mix))
		}
		total := 0
		names := make(map[string]bool, len(s.Mix))
		for i := range s.Mix {
			c := &s.Mix[i]
			field := fieldIndex("mix", i)
			if c.Name == "" {
				c.Name = "client" + strconv.Itoa(i+1)
			}
			if err := checkName(field+".name", c.Name); err != nil {
				return err
			}
			if names[c.Name] {
				return validate.Fieldf(field+".name", "duplicate client name %q", c.Name)
			}
			names[c.Name] = true
			if c.Cores < 1 || c.Cores > maxClients {
				return validate.Fieldf(field+".cores", "must be in [1,%d], got %d", maxClients, c.Cores)
			}
			total += c.Cores
			if total > maxClients {
				return validate.Fieldf(field+".cores", "client core counts total more than %d", maxClients)
			}
			if _, err := resolveWorkload(&c.Workload, c.Name, s.Seed, field+".workload"); err != nil {
				return err
			}
		}
	default:
		t := s.Trace
		if t.Path != "" {
			if len(t.Paths) > 0 {
				return validate.Fieldf("trace.path", "path and paths are mutually exclusive")
			}
			t.Paths = []string{t.Path}
			t.Path = ""
		}
		if len(t.Paths) == 0 {
			return validate.Fieldf("trace.paths", "at least one recording path required")
		}
		if len(t.Paths) > maxTracePaths {
			return validate.Fieldf("trace.paths", "at most %d recordings, got %d", maxTracePaths, len(t.Paths))
		}
		for i, p := range t.Paths {
			field := fieldIndex("trace.paths", i)
			if p == "" {
				return validate.Fieldf(field, "empty path")
			}
			if len(p) > maxPathLen {
				return validate.Fieldf(field, "path longer than %d bytes", maxPathLen)
			}
			if strings.ContainsAny(p, "\x00\n\r") {
				return validate.Fieldf(field, "path contains control characters")
			}
		}
	}
	return nil
}

// checkName validates a display name: non-empty, bounded, printable,
// not padded with whitespace.
func checkName(field, name string) error {
	if name == "" {
		return validate.Fieldf(field, "required")
	}
	if len(name) > maxNameLen {
		return validate.Fieldf(field, "longer than %d bytes", maxNameLen)
	}
	if strings.TrimSpace(name) != name {
		return validate.Fieldf(field, "has leading or trailing whitespace")
	}
	for _, r := range name {
		if r < 0x20 || r == 0x7f {
			return validate.Fieldf(field, "contains control characters")
		}
	}
	return nil
}

// resolveWorkload folds ws's base, scale, and overrides into a concrete
// workload.Params (named name, seeded seed unless overridden),
// range-checks the result, and rewrites ws into its normalized
// fully-explicit form (every field set, Base and Scale cleared).
func resolveWorkload(ws *WorkloadSpec, name string, seed int64, field string) (workload.Params, error) {
	p := defaultTemplate()
	if ws.Base != "" {
		var err error
		p, err = workload.ByName(ws.Base)
		if err != nil {
			return p, validate.Fieldf(field+".base", "unknown catalog workload %q (valid: %s)",
				ws.Base, strings.Join(workload.Names(), ", "))
		}
	}
	if ws.Scale != 0 {
		if ws.Scale < minScale || ws.Scale > maxScale {
			return p, validate.Fieldf(field+".scale", "must be in [%g,%g], got %g", float64(minScale), float64(maxScale), ws.Scale)
		}
		p = workload.Scaled(p, ws.Scale)
	}
	p.Name = name
	p.Seed = seed
	if ws.Seed != nil {
		p.Seed = *ws.Seed
	}
	setInt := func(dst *int, src *int) {
		if src != nil {
			*dst = *src
		}
	}
	setFloat := func(dst *float64, src *float64) {
		if src != nil {
			*dst = *src
		}
	}
	setInt(&p.FootprintBytes, ws.FootprintBytes)
	setInt(&p.OSFootprintBytes, ws.OSFootprintBytes)
	setInt(&p.RequestTypes, ws.RequestTypes)
	setFloat(&p.RequestZipf, ws.RequestZipf)
	setInt(&p.FuncBlocksMean, ws.FuncBlocksMean)
	setInt(&p.CallDepth, ws.CallDepth)
	setFloat(&p.CallSiteDensity, ws.CallSiteDensity)
	setFloat(&p.VaryProb, ws.VaryProb)
	setFloat(&p.SkipProb, ws.SkipProb)
	setFloat(&p.CoreBias, ws.CoreBias)
	setFloat(&p.TrapRate, ws.TrapRate)
	setFloat(&p.SchedProb, ws.SchedProb)
	setFloat(&p.LoopWeight, ws.LoopWeight)

	if err := checkParams(p, field); err != nil {
		return p, err
	}

	// Rewrite ws to the fully-explicit normalized form. Re-resolving it
	// starts from the neutral template and overrides every field, so the
	// result — and therefore the canonical document — is a fixed point.
	*ws = WorkloadSpec{
		Seed:             ptr(p.Seed),
		FootprintBytes:   ptr(p.FootprintBytes),
		OSFootprintBytes: ptr(p.OSFootprintBytes),
		RequestTypes:     ptr(p.RequestTypes),
		RequestZipf:      ptr(p.RequestZipf),
		FuncBlocksMean:   ptr(p.FuncBlocksMean),
		CallDepth:        ptr(p.CallDepth),
		CallSiteDensity:  ptr(p.CallSiteDensity),
		VaryProb:         ptr(p.VaryProb),
		SkipProb:         ptr(p.SkipProb),
		CoreBias:         ptr(p.CoreBias),
		TrapRate:         ptr(p.TrapRate),
		SchedProb:        ptr(p.SchedProb),
		LoopWeight:       ptr(p.LoopWeight),
	}
	return p, nil
}

// checkParams applies the spec-level bounds to resolved parameters.
// The ranges guarantee that building the workload's block graph
// succeeds, so compiled specs never fail lazily at run time.
func checkParams(p workload.Params, field string) error {
	type rng struct {
		name string
		got  float64
		lo   float64
		hi   float64
		isI  bool
	}
	checks := []rng{
		{"footprint_bytes", float64(p.FootprintBytes), minFootprint, maxFootprint, true},
		{"os_footprint_bytes", float64(p.OSFootprintBytes), minOSFootprint, maxOSFootprint, true},
		{"request_types", float64(p.RequestTypes), 1, maxRequestTypes, true},
		{"request_zipf", p.RequestZipf, 0, maxRequestZipf, false},
		{"func_blocks_mean", float64(p.FuncBlocksMean), 1, maxFuncBlocksMean, true},
		{"call_depth", float64(p.CallDepth), 1, maxCallDepth, true},
		{"call_site_density", p.CallSiteDensity, 0, 1, false},
		{"vary_prob", p.VaryProb, 0, 1, false},
		{"skip_prob", p.SkipProb, 0, 1, false},
		{"core_bias", p.CoreBias, 0, 1, false},
		{"trap_rate", p.TrapRate, 0, 1, false},
		{"sched_prob", p.SchedProb, 0, 1, false},
		{"loop_weight", p.LoopWeight, 0, 1, false},
	}
	for _, c := range checks {
		if c.got < c.lo || c.got > c.hi {
			if c.isI {
				return validate.Fieldf(field+"."+c.name, "must be in [%d,%d], got %d", int64(c.lo), int64(c.hi), int64(c.got))
			}
			return validate.Fieldf(field+"."+c.name, "must be in [%g,%g], got %g", c.lo, c.hi, c.got)
		}
	}
	// Worst-case function sizing (every function at the 2*mean-1 block
	// maximum) must still yield enough functions for the request types
	// plus the scheduler/trap entry points.
	appBlocks := p.FootprintBytes / 64
	if minFuncs := appBlocks / (2*p.FuncBlocksMean - 1); minFuncs < p.RequestTypes+4 {
		return validate.Fieldf(field+".request_types",
			"footprint %d bytes is too small for %d request types at func_blocks_mean %d",
			p.FootprintBytes, p.RequestTypes, p.FuncBlocksMean)
	}
	return nil
}

// defaultTemplate is the neutral base for specs without a catalog Base:
// a mid-sized server-like workload (1MB instruction footprint, moderate
// OS involvement). Every field can be overridden.
func defaultTemplate() workload.Params {
	return workload.Params{
		FootprintBytes:   1024 * 1024,
		OSFootprintBytes: 64 * 1024,
		RequestTypes:     8,
		RequestZipf:      0.5,
		FuncBlocksMean:   5,
		CallDepth:        6,
		CallSiteDensity:  0.30,
		VaryProb:         0.04,
		SkipProb:         0.22,
		CoreBias:         0.04,
		TrapRate:         0.003,
		SchedProb:        0.20,
		LoopWeight:       0.45,
	}
}

func ptr[T any](v T) *T { return &v }

// fieldIndex renders an indexed field path, e.g. "phases[2]".
func fieldIndex(base string, i int) string { return base + "[" + strconv.Itoa(i) + "]" }
