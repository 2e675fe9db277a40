package shift

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"shift/internal/sim"
	"shift/internal/spec"
	"shift/internal/trace"
	"shift/internal/workload"
)

// catalogSpecFiles maps each Table I workload to the testdata spec
// document that reproduces it exactly (same base parameters, same seed)
// and to the ID that document compiles to. The IDs pin the files'
// content: an edit to any field changes its ID.
var catalogSpecFiles = map[string]struct{ file, id string }{
	"OLTP DB2":        {"oltp_db2.json", "spec:OLTP DB2@a4f3b254ef636ab6"},
	"OLTP Oracle":     {"oltp_oracle.json", "spec:OLTP Oracle@f14ff4940b0d8b9c"},
	"DSS Qry 2":       {"dss_qry2.json", "spec:DSS Qry 2@077ac6698cbca768"},
	"DSS Qry 17":      {"dss_qry17.json", "spec:DSS Qry 17@086add6cddd1d687"},
	"Media Streaming": {"media_streaming.json", "spec:Media Streaming@ed03a0a57371c261"},
	"Web Frontend":    {"web_frontend.json", "spec:Web Frontend@baab8bce6000d278"},
	"Web Search":      {"web_search.json", "spec:Web Search@7298ced67e5d1cbc"},
}

// equivConfig is the small shared run shape of the equivalence tests.
func equivConfig(workloadName string, d Design) Config {
	cfg := DefaultRunConfig(workloadName, d)
	cfg.Cores = 4
	cfg.WarmupRecords = 6000
	cfg.MeasureRecords = 6000
	return cfg
}

// TestSpecCatalogEquivalence is the golden catalog-equivalence suite:
// for every Table I workload, the testdata spec document compiles to its
// pinned ID and to a workload whose runs are byte-identical to the
// catalog runs, while the spec's Config.Key stays distinct from the
// catalog cell's (spec cells must never alias catalog cache entries).
func TestSpecCatalogEquivalence(t *testing.T) {
	for _, name := range Workloads() {
		want, ok := catalogSpecFiles[name]
		if !ok {
			t.Fatalf("no equivalence spec file for catalog workload %q", name)
		}
		id, err := LoadSpecFile(filepath.Join("testdata", "specs", want.file))
		if err != nil {
			t.Fatalf("LoadSpecFile(%s): %v", want.file, err)
		}
		if id != want.id {
			t.Fatalf("LoadSpecFile(%s) = %q, want %q", want.file, id, want.id)
		}
		if WorkloadDisplayName(id) != name {
			t.Errorf("display name of %s = %q, want %q", id, WorkloadDisplayName(id), name)
		}

		cat := equivConfig(name, DesignBaseline)
		spc := cat
		spc.Workload = id
		if cat.Key() == spc.Key() {
			t.Errorf("%s: spec config key equals catalog key %s", name, cat.Key())
		}

		rCat, err := Run(cat)
		if err != nil {
			t.Fatalf("catalog run %s: %v", name, err)
		}
		rSpec, err := Run(spc)
		if err != nil {
			t.Fatalf("spec run %s: %v", name, err)
		}
		if !reflect.DeepEqual(rCat, rSpec) {
			t.Errorf("%s: spec run differs from catalog run:\ncatalog: %+v\nspec:    %+v", name, rCat, rSpec)
		}
	}
}

// TestSpecFigure7RowMatchesCatalog proves a figure driver run over a
// spec workload yields the identical figure row as the catalog path.
func TestSpecFigure7RowMatchesCatalog(t *testing.T) {
	id, err := LoadSpecFile(filepath.Join("testdata", "specs", "web_search.json"))
	if err != nil {
		t.Fatal(err)
	}

	oCat := tinyOptions()
	figCat, err := RunFigure7(oCat)
	if err != nil {
		t.Fatal(err)
	}
	oSpec := tinyOptions()
	oSpec.Workloads = []string{id}
	figSpec, err := RunFigure7(oSpec)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := figSpec.Workloads, []string{"Web Search"}; !reflect.DeepEqual(got, want) {
		t.Errorf("spec figure workload axis = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(figCat.Rows, figSpec.Rows) {
		t.Errorf("Figure 7 rows differ:\ncatalog: %+v\nspec:    %+v", figCat.Rows, figSpec.Rows)
	}
}

// TestSpecPhasedDeterminism runs an out-of-catalog spec — a
// phase-sequenced footprint mix — twice through the public API and
// demands bit-identical results per seed, plus a changed ID (and
// changed result) under a different seed.
func TestSpecPhasedDeterminism(t *testing.T) {
	doc := `{"name": "burst-then-scan", "seed": 7, "phases": [
		{"records": 3000, "workload": {"base": "Web Search", "footprint_bytes": 262144}},
		{"records": 3000, "workload": {"base": "DSS Qry 2", "scale": 0.25}}]}`
	id, err := LoadSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	cfg := equivConfig(id, DesignSHIFT)
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("phased spec not deterministic:\nfirst:  %+v\nsecond: %+v", r1, r2)
	}
	if r1.Workload != "burst-then-scan" {
		t.Errorf("result workload = %q, want display name", r1.Workload)
	}

	id2, err := LoadSpec([]byte(strings.Replace(doc, `"seed": 7`, `"seed": 8`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Error("different seed compiled to the same spec ID")
	}
	cfg2 := cfg
	cfg2.Workload = id2
	r3, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1, r3) {
		t.Error("different seed produced identical results")
	}
}

// recordTraces generates per-core recordings from a catalog workload —
// n records each — for the replay tests.
func recordTraces(t *testing.T, cores int, n int) [][]trace.Record {
	t.Helper()
	p, err := workload.ByName("Web Search")
	if err != nil {
		t.Fatal(err)
	}
	p = workload.Scaled(p, 0.25)
	w, err := workload.Cached(p)
	if err != nil {
		t.Fatal(err)
	}
	traces := make([][]trace.Record, cores)
	for c := range traces {
		recs, err := trace.Collect(trace.Limit(w.NewCoreReader(c), int64(n)), n)
		if err != nil {
			t.Fatal(err)
		}
		traces[c] = recs
	}
	return traces
}

// writeTraceFiles encodes recordings with the trace codec into dir and
// returns the file names.
func writeTraceFiles(t *testing.T, dir string, traces [][]trace.Record) []string {
	t.Helper()
	names := make([]string, len(traces))
	for i, recs := range traces {
		name := fmt.Sprintf("core%d.trace", i)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		enc, err := trace.NewEncoder(f)
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
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		names[i] = name
	}
	return names
}

// replaySpecFile writes a trace-replay spec document next to the
// recordings (relative paths resolve against the document directory).
func replaySpecFile(t *testing.T, dir string, paths []string) string {
	t.Helper()
	doc, err := json.Marshal(map[string]any{"name": "replayed", "trace": map[string]any{"paths": paths}})
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "replay.json")
	if err := os.WriteFile(file, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	return file
}

// TestSpecTraceReplayConformance is the round-trip conformance test:
// recordings written through the trace codec and replayed through a
// spec simulate bit-identically to the same records fed directly
// through an in-memory replay source.
func TestSpecTraceReplayConformance(t *testing.T) {
	const cores, n = 2, 9000
	traces := recordTraces(t, cores, n)
	dir := t.TempDir()
	id, err := LoadSpecFile(replaySpecFile(t, dir, writeTraceFiles(t, dir, traces)))
	if err != nil {
		t.Fatal(err)
	}

	cfg := equivConfig(id, DesignSHIFT)
	cfg.Cores = cores
	cfg.WarmupRecords = 4000
	cfg.MeasureRecords = 4000

	// Spec path: the registered replay source, through the public API.
	rSpec, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Direct path: the identical records as an in-memory source, run at
	// the sim layer with an otherwise identical configuration.
	rs, err := cfg.spec()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := workload.NewReplay(traces)
	if err != nil {
		t.Fatal(err)
	}
	rs.Source = direct
	simDirect, err := sim.Run(rs)
	if err != nil {
		t.Fatal(err)
	}
	rDirect := fromSim(simDirect, cfg.Workload)
	if !reflect.DeepEqual(rSpec, rDirect) {
		t.Errorf("replay through spec differs from direct replay:\nspec:   %+v\ndirect: %+v", rSpec, rDirect)
	}
}

// TestSpecTraceReplayShortStream proves a recording shorter than the
// simulation window surfaces as a typed *StreamShortError — detected up
// front, in both the standalone and batched execution paths.
func TestSpecTraceReplayShortStream(t *testing.T) {
	const cores, n = 2, 3000
	traces := recordTraces(t, cores, n)
	dir := t.TempDir()
	id, err := LoadSpecFile(replaySpecFile(t, dir, writeTraceFiles(t, dir, traces)))
	if err != nil {
		t.Fatal(err)
	}

	cfg := equivConfig(id, DesignBaseline)
	cfg.Cores = cores
	cfg.WarmupRecords = 4000
	cfg.MeasureRecords = 4000 // window 8000 > 3000 recorded

	check := func(err error, path string) {
		t.Helper()
		var short *StreamShortError
		if !errors.As(err, &short) {
			t.Fatalf("%s: error %v, want *StreamShortError", path, err)
		}
		if short.Phase != "validate" {
			t.Errorf("%s: shortage detected in phase %q, want validate", path, short.Phase)
		}
		if short.Have != int64(n) || short.Need != cfg.WarmupRecords+cfg.MeasureRecords {
			t.Errorf("%s: have/need = %d/%d, want %d/%d", path, short.Have, short.Need, n, cfg.WarmupRecords+cfg.MeasureRecords)
		}
	}

	_, err = Run(cfg)
	check(err, "standalone")

	// Batched: two cells over the same replay stream batch together and
	// must fail the same way, not truncate silently.
	cfg2 := cfg
	cfg2.Design = DesignNextLine
	_, err = RunBatch([]Config{cfg, cfg2})
	check(err, "batched")
}

// TestCompileWireSpec proves the wire-facing compiler refuses trace-replay
// specs (shiftd must not read server-local files on behalf of remote
// clients) while accepting generated-workload specs, that compiling
// registers nothing, and that Cell registers the document only for a cell
// that passes.
func TestCompileWireSpec(t *testing.T) {
	sneaky := []byte(`{"name": "sneaky", "trace": {"path": "/etc/hostname"}}`)
	var fe *FieldError
	if _, err := CompileWireSpec(sneaky); !errors.As(err, &fe) || fe.Field != "spec" {
		t.Errorf("CompileWireSpec of a trace-replay spec: %v, want a spec FieldError", err)
	}
	// The registry never evicts: a name of its own keeps a repeated run
	// (go test -count) from finding the document already registered.
	doc := fmt.Sprintf(`{"name": "wire cell %d", "workload": {"base": "Web Search"}}`, time.Now().UnixNano())
	ws, err := CompileWireSpec([]byte(doc))
	if err != nil {
		t.Fatalf("CompileWireSpec rejected a generated spec: %v", err)
	}
	id := ws.ID()
	if doc, err := SpecCanonical(id); err == nil {
		t.Errorf("CompileWireSpec registered %s: %s", id, doc)
	}
	refused := DefaultRunConfig("", DesignSHIFT)
	refused.Cores = 99
	if _, err := ws.Cell(refused); !errors.As(err, &fe) || fe.Field != "cores" {
		t.Errorf("Cell of 99 cores: %v, want a cores FieldError", err)
	}
	if doc, err := SpecCanonical(id); err == nil {
		t.Errorf("a refused cell registered %s: %s", id, doc)
	}
	cfg, err := ws.Cell(DefaultRunConfig("", DesignSHIFT))
	if err != nil || cfg.Workload != id {
		t.Fatalf("Cell = %q, %v; want workload %s", cfg.Workload, err, id)
	}
	if _, err := SpecCanonical(id); err != nil {
		t.Errorf("an accepted cell left %s unregistered: %v", id, err)
	}
}

// TestSpecMixPinsCores proves a mix spec pins the configured core count
// at every entry point that accepts a workload identifier.
func TestSpecMixPinsCores(t *testing.T) {
	id, err := LoadSpec([]byte(`{"name": "consolidated", "mix": [
		{"name": "oltp", "cores": 2, "workload": {"base": "OLTP DB2"}},
		{"name": "search", "cores": 2, "workload": {"base": "Web Search", "scale": 0.5}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := spec.Lookup(id); c.PinnedCores() != 4 {
		t.Fatalf("the mix pins %d cores, want 4", c.PinnedCores())
	}

	cfg := equivConfig(id, DesignBaseline) // 4 cores: matches
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cores != 4 {
		t.Errorf("mix ran on %d cores, want 4", r.Cores)
	}

	bad := cfg
	bad.Cores = 8
	if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "4-core mix") {
		t.Errorf("mismatched core count accepted: %v", err)
	}
	if _, err := (Options{Workloads: []string{id}, Cores: 8}).normalize(); err == nil {
		t.Error("Options.normalize accepted a mismatched mix core count")
	}
}
