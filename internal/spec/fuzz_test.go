package spec

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"shift/internal/trace"
	"shift/internal/validate"
)

// fuzzSeeds are representative documents: every spec form and a few
// near-misses, a non-JSON document among them. The on-disk corpus under
// testdata/fuzz/FuzzSpec extends these.
var fuzzSeeds = []string{
	`{"name": "a", "workload": {"base": "Web Search"}}`,
	`{"name": "b", "seed": 9, "workload": {"base": "OLTP DB2", "scale": 0.5, "request_zipf": 0.7}}`,
	`{"name": "c", "phases": [{"records": 100, "workload": {"footprint_bytes": 16384}}, {"records": 200, "workload": {"base": "DSS Qry 2"}}]}`,
	`{"name": "d", "mix": [{"name": "x", "cores": 2, "workload": {}}, {"cores": 14, "workload": {"base": "Web Frontend"}}]}`,
	`{"name": "e", "trace": {"paths": ["a.trace", "b.trace"]}}`,
	`{"name": "f", "seed": 3, "workload": {"base": "Media Streaming", "trap_rate": 0.01}}`,
	`{"name": "quoted: name", "workload": {}}`,
	`{"name": "g", "workload": {"footprint_bytes": 1024, "request_types": 64}}`,
	`{"name": "h", "name": "h", "workload": {}}`,
	`{"workload": {}}`,
	`{"": 1}`,
	`["just", "a", "list"]`,
	`{"name": "\u00e9\tbad", "workload": {}}`,
	"{",
	"name: i\nworkload: {base: Web Search}\n",
}

// fuzzTrace is the recording the fuzz opener serves for every path, so
// trace specs compile hermetically and deterministically.
var fuzzTrace = func() []byte {
	var buf bytes.Buffer
	enc, err := trace.NewEncoder(&buf)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 32; i++ {
		if err := enc.Write(trace.Record{Block: trace.BlockAddr(i * 7), Instrs: uint16(1 + i%5), Kind: trace.Kind(i % 5)}); err != nil {
			panic(err)
		}
	}
	if err := enc.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}()

func fuzzOpener(string) (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(fuzzTrace)), nil
}

// FuzzSpec drives arbitrary documents through the full pipeline and
// enforces the package contract: no panics, every rejection is a
// field-named *validate.FieldError, and accepted documents hit a fixed
// point — the canonical form re-compiles to the identical canonical
// bytes and ID, and recompiling the original input reproduces the ID.
func FuzzSpec(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireFieldError := func(err error) {
			t.Helper()
			var fe *validate.FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("rejection is %T (%v), not a *validate.FieldError", err, err)
			}
			if fe.Field == "" || fe.Msg == "" {
				t.Fatalf("rejection with empty field or message: %+v", fe)
			}
		}

		c1, err := Load(data, fuzzOpener)
		if err != nil {
			requireFieldError(err)
			return
		}
		c2, err := Load(c1.Canonical(), fuzzOpener)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\ncanonical: %s", err, c1.Canonical())
		}
		if !bytes.Equal(c1.Canonical(), c2.Canonical()) {
			t.Fatalf("canonical form is not a fixed point:\n%s\n%s", c1.Canonical(), c2.Canonical())
		}
		if c1.ID() != c2.ID() {
			t.Fatalf("canonical form changed the ID: %s vs %s", c1.ID(), c2.ID())
		}
		c3, err := Load(data, fuzzOpener)
		if err != nil {
			t.Fatalf("recompiling the accepted input failed: %v", err)
		}
		if c3.ID() != c1.ID() {
			t.Fatalf("recompiling the same input changed the ID: %s vs %s", c1.ID(), c3.ID())
		}
	})
}
