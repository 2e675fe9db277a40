package shift

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"shift/internal/core"
	"shift/internal/sim"
	"shift/internal/spec"
	"shift/internal/validate"
	"shift/internal/workload"
)

// FieldError is a validation failure naming the offending field — the
// error type every spec rejection (and shiftd 400) carries. Use
// errors.As to recover the field name programmatically.
type FieldError = validate.FieldError

// StreamShortError reports a bounded record stream (a trace replay)
// that could not supply a full simulation window. Phase is "validate"
// when the shortage was detected up front, "warmup"/"measure" when a
// stream ran dry mid-run; Core is the starved core or -1.
type StreamShortError = sim.StreamShortError

// LoadSpec compiles and registers a workload spec document (a JSON
// object; see ARCHITECTURE.md "Workload specs"). It returns the spec's
// content-addressed workload ID — "spec:<name>@<hash16>" — which is
// usable anywhere a catalog workload name is: Config.Workload,
// Options.Workloads, shiftsim -workloads, shiftd cells. Equal documents
// (and equal trace content) compile to equal IDs, so spec-driven cells
// memoize, batch, and sample exactly like catalog cells; any parameter
// or trace change yields a new ID and therefore new cache keys.
//
// Trace recordings referenced by relative paths resolve against the
// current directory; use LoadSpecFile to resolve them against the
// document's own directory.
func LoadSpec(data []byte) (string, error) { return register(spec.Load(data, nil)) }

// LoadSpecFile reads, compiles, and registers the spec document at
// path. Relative trace-recording paths resolve against the document's
// directory, so a spec and its recordings travel together.
func LoadSpecFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	dir := filepath.Dir(path)
	open := func(p string) (io.ReadCloser, error) {
		if !filepath.IsAbs(p) {
			p = filepath.Join(dir, p)
		}
		return os.Open(p)
	}
	return register(spec.Load(data, open))
}

// WireSpecID compiles a spec document from untrusted wire input and
// returns the ID it compiles to, registering nothing. Like LoadSpecCell it
// refuses trace-replay specs: honoring a spec's trace paths would let a
// remote client read server-local files.
func WireSpecID(data []byte) (string, error) {
	comp, err := spec.Load(data, noTraces)
	if err != nil {
		return "", err
	}
	return comp.ID(), nil
}

// noTraces is the wire's Opener: it opens no trace recording.
func noTraces(string) (io.ReadCloser, error) {
	return nil, errors.New("trace replay is not available here (submit trace specs via shiftsim -spec)")
}

// LoadSpecCell compiles a wire spec document as cfg's workload, refusing
// trace-replay specs as WireSpecID does, and checks cfg against
// it by Config.Validate's rules. The spec is registered only when both
// pass, so a refused cell leaves the process's spec registry as it found
// it. It returns cfg with Workload set to the spec's ID. A document that
// does not compile is a "spec" FieldError.
func LoadSpecCell(data []byte, cfg Config) (Config, error) {
	comp, err := spec.Load(data, noTraces)
	if err != nil {
		return Config{}, validate.Fieldf("spec", "%v", err)
	}
	cfg.Workload = comp.ID()
	rs, err := cfg.specOf(comp)
	if err == nil {
		err = rs.Validate()
	}
	if err != nil {
		return Config{}, err
	}
	spec.Register(comp)
	return cfg, nil
}

// register publishes a compiled spec and returns its ID.
func register(c *spec.Compiled, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return spec.Register(c).ID(), nil
}

// SpecCanonical returns the canonical JSON form of a registered spec —
// the exact bytes its content hash was computed over. This is the
// document to submit when forwarding a locally compiled spec to a
// remote shiftd as an inline "spec" cell: identical canonical content
// resolves to the identical content-addressed ID on the server.
func SpecCanonical(id string) ([]byte, error) {
	c, ok := spec.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("unknown spec %q", id)
	}
	return c.Canonical(), nil
}

// WorkloadDisplayName returns the label results and figure rows render
// for a workload: a registered spec's display name, or name itself for
// catalog workloads (and unregistered IDs).
func WorkloadDisplayName(name string) string {
	if c, ok := spec.Lookup(name); ok {
		return c.Name()
	}
	return name
}

// displayNames maps workload identifiers to their display labels.
func displayNames(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = WorkloadDisplayName(n)
	}
	return out
}

// resolveWorkloadInto fills rs's workload form from a workload
// identifier: catalog names become a homogeneous Params, registered
// spec IDs resolve to whatever the spec compiled to (Params, groups, or
// a shared record Source). An identifier that names neither is a
// "workload" FieldError.
func resolveWorkloadInto(name string, rs *sim.RunSpec) error {
	if comp, ok := spec.Lookup(name); ok {
		return specWorkload(comp, rs)
	}
	if spec.IsID(name) {
		return validate.Fieldf("workload", "spec %q is not registered in this process (load it with LoadSpec first)", name)
	}
	wp, err := workload.ByName(name)
	if err != nil {
		return validate.Fieldf("workload", "unknown workload %q (valid: %s)", name, strings.Join(Workloads(), ", "))
	}
	rs.Workload = wp
	return nil
}

// specWorkload resolves a registered spec into the run spec's workload
// form: a homogeneous Params, consolidated groups (mix), or a shared
// record Source (phases, trace replay). A mix pins the core count to its
// clients' total; any other is a "cores" FieldError.
func specWorkload(c *spec.Compiled, rs *sim.RunSpec) error {
	if p, ok := c.Single(); ok {
		rs.Workload = p
		return nil
	}
	if clients, ok := c.Clients(); ok {
		if n := c.PinnedCores(); n != rs.Config.Cores {
			return validate.Fieldf("cores", "spec %q is a %d-core mix, configured for %d cores", c.Name(), n, rs.Config.Cores)
		}
		next := 0
		for _, cl := range clients {
			cores := make([]int, cl.Cores)
			for j := range cores {
				cores[j] = next
				next++
			}
			rs.Groups = append(rs.Groups, core.Group{Name: cl.Name, Cores: cores})
			rs.GroupWorkloads = append(rs.GroupWorkloads, cl.Params)
		}
		return nil
	}
	src, err := c.Source()
	if err != nil {
		return err
	}
	rs.Source = src
	return nil
}
