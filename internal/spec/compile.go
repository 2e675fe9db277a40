package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"sync"

	"shift/internal/trace"
	"shift/internal/validate"
	"shift/internal/workload"
)

// Replay-input bounds: a recording must fit comfortably in memory once
// decoded (records are held as a shared slice all cores replay from).
const (
	// maxTraceFileBytes caps one recording's encoded size.
	maxTraceFileBytes = 256 << 20
	// maxTraceRecords caps one recording's decoded length.
	maxTraceRecords = 16 << 20
)

// IDPrefix marks spec-compiled workload identifiers. A compiled spec's
// ID ("spec:<name>@<hash16>") is used wherever a catalog workload name
// is — Config.Workload, Config.Key, StreamKey — so spec-driven cells
// flow through memoization, batching, and sampling unchanged, while the
// embedded content hash keeps them distinct from catalog cells and from
// any other spec.
const IDPrefix = "spec:"

// IsID reports whether name identifies a compiled spec rather than a
// catalog workload.
func IsID(name string) bool {
	return len(name) > len(IDPrefix) && name[:len(IDPrefix)] == IDPrefix
}

// Opener opens a trace recording by path. Compile uses os.Open when nil;
// tests and fuzzing inject an Opener to keep compilation hermetic, and
// front ends use one to resolve paths relative to the spec document.
type Opener func(path string) (io.ReadCloser, error)

// Client is one compiled client of a mix spec.
type Client struct {
	// Name labels the client (group name in figure output).
	Name string
	// Cores is the client's core count.
	Cores int
	// Params is the client's resolved workload.
	Params workload.Params
}

// Compiled is a validated, normalized, content-addressed spec ready to
// run. Exactly one of the workload forms is populated: a single Params
// (homogeneous), clients (consolidated mix), phases, or a trace replay.
// The expensive phase-sequence build (block graphs for every phase) is
// deferred to the first Source call, and shared: every run of the same
// Compiled — batch members included — draws from one workload.Source
// instance, which is what lets the batch runner prove stream
// compatibility by identity.
type Compiled struct {
	spec      Spec
	id        string
	canonical []byte

	single  *workload.Params
	clients []Client
	phases  []workload.Phase
	replay  *workload.Replay

	srcOnce sync.Once
	src     workload.Source
	srcErr  error
}

// Load parses, normalizes, and compiles a spec document in one step.
func Load(data []byte, open Opener) (*Compiled, error) {
	s, err := Parse(data)
	if err != nil {
		return nil, err
	}
	return s.Compile(open)
}

// Compile validates and normalizes a copy of s (the receiver is left
// untouched), resolves every workload, loads and decodes trace
// recordings through open (os.Open when nil), and returns the compiled
// form. The ID is derived from the normalized document — plus, for
// replay specs, the recording bytes — so equal content compiles to
// equal IDs and any change to parameters or trace files changes the ID.
func (s *Spec) Compile(open Opener) (*Compiled, error) {
	raw, err := json.Marshal(s)
	if err != nil {
		return nil, validate.Fieldf("spec", "encoding: %v", err)
	}
	c := &Compiled{}
	if err := json.Unmarshal(raw, &c.spec); err != nil {
		return nil, validate.Fieldf("spec", "encoding: %v", err)
	}
	if err := c.spec.Normalize(); err != nil {
		return nil, err
	}
	c.canonical, err = json.Marshal(&c.spec)
	if err != nil {
		return nil, validate.Fieldf("spec", "encoding: %v", err)
	}
	h := sha256.New()
	h.Write(c.canonical)

	ns := &c.spec
	switch {
	case ns.Workload != nil:
		p, err := resolveWorkload(ns.Workload, ns.Name, ns.Seed, "workload")
		if err != nil {
			return nil, err
		}
		c.single = &p
	case len(ns.Phases) > 0:
		c.phases = make([]workload.Phase, len(ns.Phases))
		for i := range ns.Phases {
			p, err := resolveWorkload(&ns.Phases[i].Workload, ns.Name, ns.Seed, fieldIndex("phases", i)+".workload")
			if err != nil {
				return nil, err
			}
			c.phases[i] = workload.Phase{Params: p, Records: ns.Phases[i].Records}
		}
	case len(ns.Mix) > 0:
		c.clients = make([]Client, len(ns.Mix))
		for i := range ns.Mix {
			cl := &ns.Mix[i]
			p, err := resolveWorkload(&cl.Workload, cl.Name, ns.Seed, fieldIndex("mix", i)+".workload")
			if err != nil {
				return nil, err
			}
			c.clients[i] = Client{Name: cl.Name, Cores: cl.Cores, Params: p}
		}
	default:
		recs, err := loadRecordings(ns.Trace.Paths, open, h)
		if err != nil {
			return nil, err
		}
		c.replay, err = workload.NewReplay(recs)
		if err != nil {
			return nil, validate.Fieldf("trace.paths", "%v", err)
		}
	}

	sum := h.Sum(nil)
	c.id = IDPrefix + ns.Name + "@" + hex.EncodeToString(sum)[:16]
	return c, nil
}

// loadRecordings reads and decodes each recording, folding the raw
// bytes (length-prefixed, so file boundaries are unambiguous) into the
// identity hash.
func loadRecordings(paths []string, open Opener, h io.Writer) ([][]trace.Record, error) {
	if open == nil {
		open = func(path string) (io.ReadCloser, error) { return os.Open(path) }
	}
	out := make([][]trace.Record, len(paths))
	for i, path := range paths {
		field := fieldIndex("trace.paths", i)
		f, err := open(path)
		if err != nil {
			return nil, validate.Fieldf(field, "open %s: %v", path, err)
		}
		data, err := io.ReadAll(io.LimitReader(f, maxTraceFileBytes+1))
		f.Close()
		if err != nil {
			return nil, validate.Fieldf(field, "read %s: %v", path, err)
		}
		if len(data) > maxTraceFileBytes {
			return nil, validate.Fieldf(field, "%s is larger than %d bytes", path, int64(maxTraceFileBytes))
		}
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(data)))
		h.Write(n[:])
		h.Write(data)

		dec, err := trace.NewDecoder(bytes.NewReader(data))
		if err != nil {
			return nil, validate.Fieldf(field, "%s: %v", path, err)
		}
		var recs []trace.Record
		for {
			rec, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, validate.Fieldf(field, "%s: record %d: %v", path, len(recs), err)
			}
			if len(recs) >= maxTraceRecords {
				return nil, validate.Fieldf(field, "%s holds more than %d records", path, int64(maxTraceRecords))
			}
			recs = append(recs, rec)
		}
		if len(recs) == 0 {
			return nil, validate.Fieldf(field, "%s holds no records", path)
		}
		out[i] = recs
	}
	return out, nil
}

// ID returns the content-addressed identifier, "spec:<name>@<hash16>".
func (c *Compiled) ID() string { return c.id }

// Name returns the spec's display name — what figure rows and results
// render where catalog runs render the workload name.
func (c *Compiled) Name() string { return c.spec.Name }

// Canonical returns a copy of the normalized canonical JSON document —
// the hash input, and the form a client can store to reproduce the run.
func (c *Compiled) Canonical() []byte { return append([]byte(nil), c.canonical...) }

// Single returns the resolved workload of a single-workload spec.
func (c *Compiled) Single() (workload.Params, bool) {
	if c.single == nil {
		return workload.Params{}, false
	}
	return *c.single, true
}

// Clients returns the compiled clients of a mix spec.
func (c *Compiled) Clients() ([]Client, bool) {
	if len(c.clients) == 0 {
		return nil, false
	}
	return append([]Client(nil), c.clients...), true
}

// PinnedCores returns the core count a mix spec pins the configuration
// to (the sum of client core counts), or 0 when the spec runs on any
// core count.
func (c *Compiled) PinnedCores() int {
	n := 0
	for _, cl := range c.clients {
		n += cl.Cores
	}
	return n
}

// Source returns the workload.Source of a phase-sequenced or replay
// spec (nil, nil for single and mix specs, which compile to Params and
// groups instead). The phase build is lazy and happens once: all
// callers — every batch member included — share the returned instance,
// which the batch runner's stream-compatibility check relies on.
func (c *Compiled) Source() (workload.Source, error) {
	c.srcOnce.Do(func() {
		switch {
		case c.replay != nil:
			c.src = c.replay
		case len(c.phases) > 0:
			c.src, c.srcErr = workload.NewPhased(c.phases)
		}
	})
	return c.src, c.srcErr
}

// registry resolves compiled-spec IDs process-wide, so a Config whose
// Workload field carries a spec ID can be executed by any layer (engine
// cells, batch members, figure drivers) exactly like a catalog name.
var registry sync.Map // id -> *Compiled

// Register publishes c and returns the canonical instance for its ID:
// the first registration wins, so concurrent compilations of identical
// content converge on one instance (and therefore one shared Source).
func Register(c *Compiled) *Compiled {
	actual, _ := registry.LoadOrStore(c.id, c)
	return actual.(*Compiled)
}

// Lookup resolves a registered spec ID.
func Lookup(id string) (*Compiled, bool) {
	v, ok := registry.Load(id)
	if !ok {
		return nil, false
	}
	return v.(*Compiled), true
}
