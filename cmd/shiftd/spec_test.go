package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"shift"
	"shift/internal/spec"
)

// searchSpec is an inline spec reproducing the catalog "Web Search"
// workload (same base, same seed), so wire-spec cells can be compared
// against catalog cells bit for bit.
var searchSpec = map[string]any{
	"name":     "Web Search",
	"seed":     107,
	"workload": map[string]any{"base": "Web Search"},
}

// TestRunInlineSpec proves POST /v1/run accepts an inline "spec" object
// and that a catalog-equivalent spec returns the byte-identical result
// under a distinct content-addressed key.
func TestRunInlineSpec(t *testing.T) {
	ts, _ := newTestServer(t)

	var catalog, spec runResponse
	if code := postJSON(t, ts.URL+"/v1/run",
		map[string]any{"workload": "Web Search", "design": "SHIFT"}, &catalog); code != http.StatusOK {
		t.Fatalf("catalog cell: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/run",
		map[string]any{"spec": searchSpec, "design": "SHIFT"}, &spec); code != http.StatusOK {
		t.Fatalf("spec cell: status %d", code)
	}
	if spec.Key == catalog.Key {
		t.Errorf("spec cell key %s aliases the catalog cell", spec.Key)
	}
	if !reflect.DeepEqual(spec.Result, catalog.Result) {
		t.Errorf("spec result differs from catalog result:\nspec:    %+v\ncatalog: %+v", spec.Result, catalog.Result)
	}

	// Resubmitting identical spec content must resolve to the same key
	// (content-addressed registration, served from the store).
	var again runResponse
	if code := postJSON(t, ts.URL+"/v1/run",
		map[string]any{"spec": searchSpec, "design": "SHIFT"}, &again); code != http.StatusOK {
		t.Fatalf("resubmit: status %d", code)
	}
	if again.Key != spec.Key || !reflect.DeepEqual(again.Result, spec.Result) {
		t.Error("identical spec content did not memoize to the same key and result")
	}
}

// TestRunInlineSpecValidation covers the 400 paths specific to inline
// specs, including the wire-security rule that trace-replay specs are
// rejected (the server must not read local files for remote clients).
func TestRunInlineSpecValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	for name, body := range map[string]map[string]any{
		"spec and workload": {
			"workload": "Web Search", "design": "SHIFT",
			"spec": searchSpec,
		},
		"trace spec over the wire": {
			"design": "SHIFT",
			"spec":   map[string]any{"name": "sneaky", "trace": map[string]any{"path": "/etc/hostname"}},
		},
		"unknown spec field": {
			"design": "SHIFT",
			"spec":   map[string]any{"name": "x", "workloads": map[string]any{}},
		},
		"unknown base": {
			"design": "SHIFT",
			"spec":   map[string]any{"name": "x", "workload": map[string]any{"base": "nope"}},
		},
		"out-of-range knob": {
			"design": "SHIFT",
			"spec":   map[string]any{"name": "x", "workload": map[string]any{"loop_weight": 7}},
		},
		"mix pins cores": {
			"design": "SHIFT", "cores": 8,
			"spec": map[string]any{"name": "x", "mix": []any{
				map[string]any{"cores": 2, "workload": map[string]any{}},
				map[string]any{"cores": 2, "workload": map[string]any{}},
			}},
		},
	} {
		if code := postJSON(t, ts.URL+"/v1/run", body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
}

// TestRefusedSpecCellRegistersNothing: an inline-spec cell that is
// refused — its core count out of range, or its design unknown — leaves
// the process's spec registry as it found it, so a client cannot grow
// the registry with documents it is refused for. Each case's document is
// its own, and its ID stays unknown after the 400.
func TestRefusedSpecCellRegistersNothing(t *testing.T) {
	ts, _ := newTestServer(t)
	for name, cell := range map[string]map[string]any{
		"cores out of range": {"design": "SHIFT", "cores": 99},
		"unknown design":     {"design": "bogus"},
	} {
		doc := map[string]any{"name": "refused: " + name, "workload": map[string]any{"base": "Web Search"}}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := spec.Load(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		cell["spec"] = doc
		if code := postJSON(t, ts.URL+"/v1/run", cell, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
		if _, err := shift.SpecCanonical(compiled.ID()); err == nil {
			t.Errorf("%s: the refused cell registered its spec %s", name, compiled.ID())
		}
	}
}

// TestJobInlineSpecMatchesGrid runs spec cells through the async job
// API and demands the drained job's results match the synchronous
// /v1/grid reply byte for byte.
func TestJobInlineSpecMatchesGrid(t *testing.T) {
	ts, _ := newTestServer(t)
	cells := []map[string]any{
		{"spec": searchSpec, "design": "Baseline"},
		{"spec": searchSpec, "design": "SHIFT", "label": "spec-shift"},
	}
	body, err := json.Marshal(map[string]any{"cells": cells})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/grid", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid status %d", resp.StatusCode)
	}
	var gridDoc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&gridDoc); err != nil {
		t.Fatal(err)
	}
	var grid gridResponse
	if err := json.Unmarshal(gridDoc["results"], &grid.Results); err != nil {
		t.Fatal(err)
	}
	if len(grid.Results) != 2 {
		t.Fatalf("%d grid results, want 2", len(grid.Results))
	}
	// The default label renders the spec's display name, not its ID.
	if grid.Results[0].Label != "Web Search/Baseline" {
		t.Errorf("default spec label = %q, want Web Search/Baseline", grid.Results[0].Label)
	}

	sub := submitJob(t, ts.URL, cells)
	awaitJobState(t, ts.URL, sub.ID, "done")
	resp2, err := http.Get(ts.URL + sub.StatusURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var jobDoc map[string]json.RawMessage
	if err := json.NewDecoder(resp2.Body).Decode(&jobDoc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gridDoc["results"], jobDoc["results"]) {
		t.Errorf("job results differ from /v1/grid for spec cells:\n--- grid ---\n%s\n--- job ---\n%s",
			gridDoc["results"], jobDoc["results"])
	}
}

// TestFigureQueryValidatesWorkloads proves the workloads query parameter
// is held to a cell's workload rules, each refusal a 400 naming the query
// parameter: a spec ID is refused unless it was loaded in this process —
// the wire API never implicitly resolves spec IDs a client merely guesses
// — and a mix spec pins the core count.
func TestFigureQueryValidatesWorkloads(t *testing.T) {
	ts, _ := newTestServer(t)
	body := getBody(t, ts.URL+"/v1/figures/fig7?workloads=spec:ghost@0000000000000000", http.StatusBadRequest)
	if !strings.Contains(body, "workloads: ") {
		t.Errorf("unregistered spec ID on figure query: %s, want an error naming workloads", body)
	}
	id, err := shift.LoadSpec([]byte(`{"name": "pinned", "mix": [
		{"name": "oltp", "cores": 2, "workload": {"base": "OLTP DB2"}},
		{"name": "search", "cores": 2, "workload": {"base": "Web Search"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body = getBody(t, ts.URL+"/v1/figures/fig7?workloads="+url.QueryEscape(id)+"&cores=8", http.StatusBadRequest)
	if !strings.Contains(body, "cores: ") || !strings.Contains(body, "4-core mix") {
		t.Errorf("4-core mix on an 8-core figure query: %s, want an error naming cores", body)
	}
}
