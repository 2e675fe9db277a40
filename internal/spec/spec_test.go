package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"shift/internal/trace"
	"shift/internal/validate"
	"shift/internal/workload"
)

// mustLoad compiles a document or fails the test.
func mustLoad(t *testing.T, doc string, open Opener) *Compiled {
	t.Helper()
	c, err := Load([]byte(doc), open)
	if err != nil {
		t.Fatalf("Load:\n%s\nerror: %v", doc, err)
	}
	return c
}

// fieldOf extracts the FieldError field name or fails.
func fieldOf(t *testing.T, err error) string {
	t.Helper()
	var fe *validate.FieldError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v (%T) is not a *validate.FieldError", err, err)
	}
	return fe.Field
}

func TestParseRejections(t *testing.T) {
	cases := []struct {
		name  string
		doc   string
		field string
	}{
		{"empty document", " \n", "json"},
		{"non-JSON document", "name: x\nworkload:\n  base: Web Search\n", "json"},
		{"string root", `"name: x"`, "json"},
		{"non-mapping root", `["a", "b"]`, "json"},
		{"unclosed object", `{"name": "x", "mix": [{"cores": 2}`, "json"},
		{"unknown field", `{"name": "x", "workloads": {}}`, "workloads"},
		{"unknown nested field", `{"name": "x", "workload": {"bass": "y"}}`, "bass"},
		{"type mismatch", `{"name": "x", "seed": "soon"}`, "seed"},
		{"trailing garbage", `{"name": "x", "workload": {}} {"again": 1}`, "json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted:\n%s", tc.doc)
			}
			if got := fieldOf(t, err); got != tc.field {
				t.Errorf("field = %q (%v), want %q", got, err, tc.field)
			}
		})
	}
}

// TestNormalizeRejections enumerates the spec layer's validation
// rejections and the field each one names.
func TestNormalizeRejections(t *testing.T) {
	cases := []struct {
		name  string
		doc   string
		field string
	}{
		{"missing name", `{"workload": {}}`, "name"},
		{"long name", `{"name": "` + strings.Repeat("n", 65) + `", "workload": {}}`, "name"},
		{"padded name", `{"name": " x", "workload": {}}`, "name"},
		{"control name", `{"name": "a\u0001b", "workload": {}}`, "name"},
		{"no form", `{"name": "x"}`, "spec"},
		{"two forms", `{"name": "x", "workload": {}, "trace": {"path": "t"}}`, "spec"},
		{"bad base", `{"name": "x", "workload": {"base": "nope"}}`, "workload.base"},
		{"bad scale", `{"name": "x", "workload": {"scale": 17}}`, "workload.scale"},
		{"footprint low", `{"name": "x", "workload": {"footprint_bytes": 512}}`, "workload.footprint_bytes"},
		{"footprint high", `{"name": "x", "workload": {"footprint_bytes": 134217728}}`, "workload.footprint_bytes"},
		{"os footprint", `{"name": "x", "workload": {"os_footprint_bytes": 128}}`, "workload.os_footprint_bytes"},
		{"request types", `{"name": "x", "workload": {"request_types": 0}}`, "workload.request_types"},
		{"zipf", `{"name": "x", "workload": {"request_zipf": 9}}`, "workload.request_zipf"},
		{"blocks mean", `{"name": "x", "workload": {"func_blocks_mean": 2000}}`, "workload.func_blocks_mean"},
		{"call depth", `{"name": "x", "workload": {"call_depth": 0}}`, "workload.call_depth"},
		{"density", `{"name": "x", "workload": {"call_site_density": 1.5}}`, "workload.call_site_density"},
		{"vary", `{"name": "x", "workload": {"vary_prob": -0.1}}`, "workload.vary_prob"},
		{"skip", `{"name": "x", "workload": {"skip_prob": 2}}`, "workload.skip_prob"},
		{"bias", `{"name": "x", "workload": {"core_bias": 2}}`, "workload.core_bias"},
		{"trap", `{"name": "x", "workload": {"trap_rate": 2}}`, "workload.trap_rate"},
		{"sched", `{"name": "x", "workload": {"sched_prob": 2}}`, "workload.sched_prob"},
		{"loop", `{"name": "x", "workload": {"loop_weight": 2}}`, "workload.loop_weight"},
		{"too small for types", `{"name": "x", "workload": {"footprint_bytes": 1024, "request_types": 64}}`, "workload.request_types"},
		{"phase records", `{"name": "x", "phases": [{"records": 0, "workload": {}}]}`, "phases[0].records"},
		{"phase workload", `{"name": "x", "phases": [{"records": 10, "workload": {"base": "nope"}}]}`, "phases[0].workload.base"},
		{"mix cores", `{"name": "x", "mix": [{"cores": 0, "workload": {}}]}`, "mix[0].cores"},
		{"mix total", `{"name": "x", "mix": [{"cores": 9, "workload": {}}, {"cores": 9, "workload": {}}]}`, "mix[1].cores"},
		{"mix dup name", `{"name": "x", "mix": [{"name": "a", "cores": 1, "workload": {}}, {"name": "a", "cores": 1, "workload": {}}]}`, "mix[1].name"},
		{"trace both", `{"name": "x", "trace": {"path": "a", "paths": ["b"]}}`, "trace.path"},
		{"trace empty", `{"name": "x", "trace": {}}`, "trace.paths"},
		{"trace empty path", `{"name": "x", "trace": {"paths": [""]}}`, "trace.paths[0]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse([]byte(tc.doc))
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			err = s.Normalize()
			if err == nil {
				t.Fatalf("accepted:\n%s", tc.doc)
			}
			if got := fieldOf(t, err); got != tc.field {
				t.Errorf("field = %q (%v), want %q", got, err, tc.field)
			}
		})
	}
}

// TestNormalizeFixedPoint proves normalization is a fixed point: the
// canonical form re-parses, re-normalizes, and re-marshals to identical
// bytes, so the content hash is stable under round trips.
func TestNormalizeFixedPoint(t *testing.T) {
	docs := []string{
		`{"name": "a", "workload": {"base": "Web Search"}}`,
		`{"name": "b", "seed": 9, "phases": [{"records": 100, "workload": {"scale": 0.5}}, {"records": 200, "workload": {"base": "OLTP DB2"}}]}`,
		`{"name": "c", "mix": [{"cores": 3, "workload": {}}, {"cores": 5, "workload": {"base": "DSS Qry 2", "seed": 42}}]}`,
		`{"name": "d", "trace": {"path": "t.trace"}}`,
	}
	for _, doc := range docs {
		s, err := Parse([]byte(doc))
		if err != nil {
			t.Fatalf("Parse(%q): %v", doc, err)
		}
		if err := s.Normalize(); err != nil {
			t.Fatalf("Normalize(%q): %v", doc, err)
		}
		first, err := marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := Parse(first)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", first, err)
		}
		if err := s2.Normalize(); err != nil {
			t.Fatalf("re-Normalize(%q): %v", first, err)
		}
		second, err := marshal(s2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("not a fixed point:\n%s\n%s", first, second)
		}
	}
}

func marshal(s *Spec) ([]byte, error) { return json.Marshal(s) }

// tinyWorkload is a spec fragment cheap enough to build block graphs
// for in unit tests.
const tinyWorkload = `{"footprint_bytes": 16384, "os_footprint_bytes": 1024, "request_types": 4}`

// TestSameSeedSameStream is the determinism property: two independent
// compilations of the same document generate bit-identical record
// streams, and a different seed generates a different stream.
func TestSameSeedSameStream(t *testing.T) {
	doc := `{"name": "p", "seed": 5, "phases": [{"records": 500, "workload": ` + tinyWorkload + `}, {"records": 500, "workload": {"footprint_bytes": 32768, "os_footprint_bytes": 1024, "request_types": 4}}]}`

	prefix := func(c *Compiled, core int) []trace.Record {
		t.Helper()
		src, err := c.Source()
		if err != nil {
			t.Fatal(err)
		}
		r, err := src.NewCoreReader(core)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := trace.Collect(trace.Limit(r, 1500), 1500)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}

	c1 := mustLoad(t, doc, nil)
	c2 := mustLoad(t, doc, nil)
	if c1.ID() != c2.ID() {
		t.Fatalf("same document, different IDs: %s vs %s", c1.ID(), c2.ID())
	}
	for core := 0; core < 2; core++ {
		a, b := prefix(c1, core), prefix(c2, core)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("core %d streams differ between identical compilations", core)
		}
		if !reflect.DeepEqual(a, prefix(c1, core)) {
			t.Fatalf("core %d stream differs between two readers of one compilation", core)
		}
	}

	c3 := mustLoad(t, strings.Replace(doc, `"seed": 5`, `"seed": 6`, 1), nil)
	if c3.ID() == c1.ID() {
		t.Error("different seed, same ID")
	}
	if reflect.DeepEqual(prefix(c1, 0), prefix(c3, 0)) {
		t.Error("different seed produced an identical stream prefix")
	}
}

// encodeTrace encodes records with the trace codec.
func encodeTrace(t *testing.T, recs []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := trace.NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := enc.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mapOpener serves recordings from memory.
func mapOpener(files map[string][]byte) Opener {
	return func(path string) (io.ReadCloser, error) {
		data, ok := files[path]
		if !ok {
			return nil, fmt.Errorf("no such recording %q", path)
		}
		return io.NopCloser(bytes.NewReader(data)), nil
	}
}

func testRecords(n int, salt uint64) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			Block:  trace.BlockAddr((uint64(i)*2654435761 + salt) & uint64(trace.MaxBlockAddr)),
			Instrs: uint16(1 + i%9),
			Kind:   trace.Kind(i % 5),
		}
	}
	return recs
}

// TestTraceReplayRoundTrip proves a replay spec serves exactly the
// encoded records (core i replays recording i mod len) and that the
// compiled ID is content-addressed over the trace bytes.
func TestTraceReplayRoundTrip(t *testing.T) {
	a, b := testRecords(100, 1), testRecords(120, 2)
	open := mapOpener(map[string][]byte{
		"a.trace": encodeTrace(t, a),
		"b.trace": encodeTrace(t, b),
	})
	doc := `{"name": "r", "trace": {"paths": ["a.trace", "b.trace"]}}`
	c := mustLoad(t, doc, open)

	src, err := c.Source()
	if err != nil {
		t.Fatal(err)
	}
	for core, want := range [][]trace.Record{a, b, a, b} {
		r, err := src.NewCoreReader(core)
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.Collect(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("core %d replayed %d records, want recording %d (%d records)", core, len(got), core%2, len(want))
		}
	}

	// Same document, different recording content: the ID must change.
	open2 := mapOpener(map[string][]byte{
		"a.trace": encodeTrace(t, testRecords(100, 3)),
		"b.trace": encodeTrace(t, b),
	})
	c2 := mustLoad(t, doc, open2)
	if c2.ID() == c.ID() {
		t.Error("different trace content compiled to the same ID")
	}
	// Same document, same content: the ID must not change.
	if c3 := mustLoad(t, doc, open); c3.ID() != c.ID() {
		t.Error("identical trace content compiled to different IDs")
	}
}

func TestTraceRejections(t *testing.T) {
	open := mapOpener(map[string][]byte{
		"empty.trace":  encodeTrace(t, nil),
		"junk.trace":   []byte("not a trace"),
		"short.header": {0x53},
	})
	cases := []struct {
		name string
		doc  string
	}{
		{"missing file", `{"name": "r", "trace": {"path": "nope.trace"}}`},
		{"empty recording", `{"name": "r", "trace": {"path": "empty.trace"}}`},
		{"bad magic", `{"name": "r", "trace": {"path": "junk.trace"}}`},
		{"truncated header", `{"name": "r", "trace": {"path": "short.header"}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load([]byte(tc.doc), open)
			if err == nil {
				t.Fatal("accepted")
			}
			if got := fieldOf(t, err); got != "trace.paths[0]" {
				t.Errorf("field = %q (%v), want trace.paths[0]", got, err)
			}
		})
	}
}

func TestCompileLeavesReceiverUntouched(t *testing.T) {
	s, err := Parse([]byte(`{"name": "x", "workload": {"base": "Web Search"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compile(nil); err != nil {
		t.Fatal(err)
	}
	if s.Seed != 0 || s.Workload.Base != "Web Search" || s.Workload.FootprintBytes != nil {
		t.Errorf("Compile normalized its receiver: %+v", s.Workload)
	}
}

func TestRegistry(t *testing.T) {
	doc := `{"name": "reg", "seed": 77, "workload": {"base": "Web Search"}}`
	c1 := Register(mustLoad(t, doc, nil))
	c2 := Register(mustLoad(t, doc, nil))
	if c1 != c2 {
		t.Error("equal-content registrations did not converge on one instance")
	}
	got, ok := Lookup(c1.ID())
	if !ok || got != c1 {
		t.Errorf("Lookup(%s) = %v, %v", c1.ID(), got, ok)
	}
	if _, ok := Lookup("spec:ghost@0000000000000000"); ok {
		t.Error("Lookup resolved an unregistered ID")
	}
	if !IsID(c1.ID()) || IsID("Web Search") || IsID("spec:") {
		t.Error("IsID misclassifies")
	}
}

func TestMixAccessors(t *testing.T) {
	c := mustLoad(t, `{"name": "m", "mix": [{"cores": 3, "workload": {}}, {"name": "web", "cores": 5, "workload": {"base": "Web Search"}}]}`, nil)
	clients, ok := c.Clients()
	if !ok || len(clients) != 2 {
		t.Fatalf("Clients = %v, %v", clients, ok)
	}
	if clients[0].Name != "client1" || clients[1].Name != "web" {
		t.Errorf("client names = %q, %q", clients[0].Name, clients[1].Name)
	}
	if c.PinnedCores() != 8 {
		t.Errorf("PinnedCores = %d, want 8", c.PinnedCores())
	}
	if src, err := c.Source(); src != nil || err != nil {
		t.Errorf("mix Source = %v, %v, want nil, nil", src, err)
	}
	if _, ok := c.Single(); ok {
		t.Error("mix reports a single workload")
	}
	var _ workload.Source = (*workload.Replay)(nil)
}
