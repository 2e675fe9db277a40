package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"shift"
	"shift/internal/jobs"
)

// testOpts is a reduced base scale so endpoint tests stay fast.
func testOpts() shift.Options {
	o := shift.QuickOptions()
	o.Cores = 4
	o.WarmupRecords = 6000
	o.MeasureRecords = 6000
	return o
}

// newTestServer stands up shiftd's handler around a fresh shared
// engine + in-memory store, exactly as main() wires them.
func newTestServer(t *testing.T) (*httptest.Server, *server) {
	t.Helper()
	rs := shift.NewResultCache()
	engine := shift.NewEngine(0, rs)
	jm := jobs.New(jobs.Config{RunBatch: engine.RunKeyed, Results: rs})
	t.Cleanup(jm.Close)
	srv := newServer(engine, rs, testOpts(), jm, 1<<20)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// postJSON posts v and decodes the response into out, returning the
// status code.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}
}

// TestRunEndpoint checks that POST /v1/run returns exactly what the
// library returns for the equivalent Config.
func TestRunEndpoint(t *testing.T) {
	ts, srv := newTestServer(t)
	var got runResponse
	code := postJSON(t, ts.URL+"/v1/run",
		map[string]any{"workload": "Web Search", "design": "SHIFT"}, &got)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	cfg, err := cellSpec{Workload: "Web Search", Design: "SHIFT"}.config(srv.base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := shift.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != cfg.Key() {
		t.Errorf("key = %s, want %s", got.Key, cfg.Key())
	}
	if !reflect.DeepEqual(got.Result, want) {
		t.Errorf("served result differs from library result:\ngot:  %+v\nwant: %+v", got.Result, want)
	}
}

// TestRunValidation checks the 4xx paths: malformed JSON, missing
// fields, unknown names.
func TestRunValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	for name, body := range map[string]map[string]any{
		"missing workload":       {"design": "SHIFT"},
		"missing design":         {"workload": "Web Search"},
		"unknown design":         {"workload": "Web Search", "design": "MYSTERY"},
		"unknown core":           {"workload": "Web Search", "design": "SHIFT", "core_type": "Huge-OoO"},
		"unknown workload":       {"workload": "No Such Workload", "design": "SHIFT"},
		"cores too high":         {"workload": "Web Search", "design": "SHIFT", "cores": 17},
		"cores negative":         {"workload": "Web Search", "design": "SHIFT", "cores": -1},
		"negative hist":          {"workload": "Web Search", "design": "SHIFT", "hist_entries": -8},
		"huge hist":              {"workload": "Web Search", "design": "SHIFT", "hist_entries": 1 << 40},
		"elim_prob out of range": {"workload": "Web Search", "design": "SHIFT", "elim_prob": 1.5},
		"negative warmup":        {"workload": "Web Search", "design": "SHIFT", "warmup_records": -1},
		"negative measure":       {"workload": "Web Search", "design": "SHIFT", "measure_records": -1},
		"negative sample":        {"workload": "Web Search", "design": "SHIFT", "sample_period": -4},
		"negative interval":      {"workload": "Web Search", "design": "SHIFT", "sample_interval": -1},
		"warm fraction >= 1":     {"workload": "Web Search", "design": "SHIFT", "sample_period": 3, "sample_warmup": 1.0},
		"bad confidence":         {"workload": "Web Search", "design": "SHIFT", "sample_period": 3, "sample_confidence": 0.5},
		"window too small":       {"workload": "Web Search", "design": "SHIFT", "sample_period": 3, "measure_records": 2000},
	} {
		if code := postJSON(t, ts.URL+"/v1/run", body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	// Method matching: GET on a POST route.
	resp, err = http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: status %d, want 405", resp.StatusCode)
	}
}

// refuseRuns is an executor that fails the test if any cell reaches it.
type refuseRuns struct{ t *testing.T }

func (r refuseRuns) ExecBatch(cfgs []shift.Config) ([]shift.RunResult, error) {
	r.t.Errorf("%d cells of %d + %d records reached the engine", len(cfgs), cfgs[0].WarmupRecords, cfgs[0].MeasureRecords)
	return nil, errors.New("test: refused")
}

// TestRunRefusesHugeWindow: a history numbers its records in 30 bits, so
// a cell whose window is 2^30 records a core is a 400 naming the field,
// through /v1/run and /v1/jobs, before any of it runs.
func TestRunRefusesHugeWindow(t *testing.T) {
	ts, srv := newTestServer(t)
	srv.engine.SetExecutor(refuseRuns{t})
	for _, window := range []map[string]any{
		{"measure_records": 1 << 30},
		{"warmup_records": 1 << 29, "measure_records": 1 << 29},
	} {
		cell := map[string]any{"workload": "Web Search", "design": "SHIFT", "cores": 1}
		maps.Copy(cell, window)
		for path, body := range map[string]any{"/v1/run": cell, "/v1/jobs": map[string]any{"cells": []any{cell}}} {
			b, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), `\"measure_records\"`) {
				t.Errorf("%s %v: status %d %s, want 400 naming measure_records", path, window, resp.StatusCode, msg)
			}
		}
	}
}

// TestGridEndpoint checks POST /v1/grid: results in request order,
// duplicates simulated once, labels echoed.
func TestGridEndpoint(t *testing.T) {
	ts, srv := newTestServer(t)
	var got gridResponse
	code := postJSON(t, ts.URL+"/v1/grid", map[string]any{
		"cells": []map[string]any{
			{"workload": "Web Search", "design": "Baseline", "label": "base"},
			{"workload": "Web Search", "design": "NextLine"},
			{"workload": "Web Search", "design": "Baseline"}, // duplicate of cell 0
		},
	}, &got)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(got.Results) != 3 {
		t.Fatalf("%d results, want 3", len(got.Results))
	}
	if got.Results[0].Label != "base" || got.Results[1].Label != "Web Search/NextLine" {
		t.Errorf("labels = %q, %q", got.Results[0].Label, got.Results[1].Label)
	}
	if got.Results[0].Result.Design != "Baseline" || got.Results[1].Result.Design != "NextLine" {
		t.Errorf("results out of cell order: %s, %s", got.Results[0].Result.Design, got.Results[1].Result.Design)
	}
	if !reflect.DeepEqual(got.Results[0].Result, got.Results[2].Result) || got.Results[0].Key != got.Results[2].Key {
		t.Error("duplicate cells returned different results")
	}
	if st := srv.engine.Stats(); st.Simulated != 2 {
		t.Errorf("simulated %d cells, want 2 (duplicate deduped within the grid)", st.Simulated)
	}
	if code := postJSON(t, ts.URL+"/v1/grid", map[string]any{"cells": []any{}}, nil); code != http.StatusBadRequest {
		t.Errorf("empty grid: status %d, want 400", code)
	}
}

// TestFigureEndpoint checks that GET /v1/figures/{name} serves output
// byte-identical to the library's (and therefore cmd/shiftsim's)
// rendering, that bare figure numbers resolve, and that unknown names
// 404.
func TestFigureEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	const query = "?workloads=Web%20Search"
	body := getBody(t, ts.URL+"/v1/figures/fig9"+query, http.StatusOK)

	opts := testOpts()
	opts.Workloads = []string{"Web Search"}
	want, err := shift.RunExperiment("fig9", opts)
	if err != nil {
		t.Fatal(err)
	}
	if body != want {
		t.Errorf("served figure differs from library rendering:\n--- served ---\n%s\n--- library ---\n%s", body, want)
	}
	if byNumber := getBody(t, ts.URL+"/v1/figures/9"+query, http.StatusOK); byNumber != want {
		t.Error("bare figure number served different output")
	}
	getBody(t, ts.URL+"/v1/figures/fig99", http.StatusNotFound)
	// A bad query parameter is a 400, not a simulation.
	getBody(t, ts.URL+"/v1/figures/fig9?cores=many", http.StatusBadRequest)
}

// TestFigureEndpointMatchesShiftsimGolden locks the cross-binary
// acceptance property: the service's figure output is byte-identical
// to cmd/shiftsim's committed golden output for the same options.
func TestFigureEndpointMatchesShiftsimGolden(t *testing.T) {
	want, err := os.ReadFile("../shiftsim/testdata/fig9.golden")
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t)
	// Query-encode cmd/shiftsim's goldenOpts (quick scale, one
	// workload, 4 cores, 6000-record windows, seed 1).
	body := getBody(t, ts.URL+
		"/v1/figures/9?quick=1&workloads=Web%20Search&cores=4&warmup=6000&measure=6000&seed=1",
		http.StatusOK)
	if body != string(want) {
		t.Errorf("served figure drifted from cmd/shiftsim golden output:\n--- served ---\n%s\n--- golden ---\n%s", body, want)
	}
}

// getBody fetches url, asserts the status, and returns the body.
func getBody(t *testing.T, url string, wantStatus int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d (body: %s)", url, resp.StatusCode, wantStatus, body)
	}
	return string(body)
}

// TestConcurrentRunsSingleFlight is the service-level deduplication
// gate: N concurrent identical POST /v1/run requests must produce
// byte-identical responses from exactly one simulation — the rest
// share the in-flight computation or hit the store.
func TestConcurrentRunsSingleFlight(t *testing.T) {
	ts, srv := newTestServer(t)
	const n = 8
	req := map[string]any{"workload": "OLTP Oracle", "design": "SHIFT"}
	bodies := make([]string, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			payload, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d, err %v", i, resp.StatusCode, err)
				return
			}
			bodies[i] = string(b)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	// Dedup is best-effort (see TestEngineSingleFlight in the root
	// package): assert the accounting identity and that sharing
	// happened, not an exact count that would flake on loaded runners.
	st := srv.engine.Stats()
	if st.Simulated+st.Deduped+st.StoreHits != n {
		t.Errorf("accounting: simulated=%d + deduped=%d + storeHits=%d != %d requests",
			st.Simulated, st.Deduped, st.StoreHits, n)
	}
	if st.Simulated < 1 || st.Simulated >= n {
		t.Errorf("simulated %d cells for %d concurrent identical requests, want 1 <= simulated < %d", st.Simulated, n, n)
	}

	// The follow-up request is a pure store hit: no new simulation.
	simulatedBefore := st.Simulated
	var again runResponse
	if code := postJSON(t, ts.URL+"/v1/run", req, &again); code != http.StatusOK {
		t.Fatalf("follow-up status %d", code)
	}
	if st := srv.engine.Stats(); st.Simulated != simulatedBefore {
		t.Errorf("follow-up request re-simulated (%d -> %d)", simulatedBefore, st.Simulated)
	}

	// /v1/stats reflects all of the above.
	var stats statsView
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Simulated != simulatedBefore || stats.StoreCells != 1 || stats.Inflight != 0 {
		t.Errorf("stats = %+v, want simulated=%d store_cells=1 inflight=0", stats, simulatedBefore)
	}
	if stats.Requests < n+1 {
		t.Errorf("requests = %d, want >= %d", stats.Requests, n+1)
	}
}

// TestFiguresShareTheStore checks that cells paid for by one endpoint
// are reused by another: a figure request after a grid covering its
// cells simulates only what is missing.
func TestFiguresShareTheStore(t *testing.T) {
	ts, srv := newTestServer(t)
	var first runResponse
	if code := postJSON(t, ts.URL+"/v1/run",
		map[string]any{"workload": "Web Search", "design": "Baseline"}, &first); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	before := srv.engine.Stats()
	// Figure 9 over the same single workload re-runs the same baseline
	// cell; it must come from the store.
	getBody(t, ts.URL+"/v1/figures/9?workloads=Web%20Search", http.StatusOK)
	after := srv.engine.Stats()
	if after.StoreHits <= before.StoreHits {
		t.Errorf("figure request did not reuse stored cells (hits %d -> %d)", before.StoreHits, after.StoreHits)
	}
}

// TestStatsEndpointShape pins the stats JSON field names — they are
// API.
func TestStatsEndpointShape(t *testing.T) {
	ts, _ := newTestServer(t)
	body := getBody(t, ts.URL+"/v1/stats", http.StatusOK)
	for _, field := range []string{
		"uptime_seconds", "requests", "store_hits", "store_misses",
		"store_cells", "simulated", "deduped", "inflight",
		"queue_depth", "jobs_admitted", "jobs_rejected", "jobs_cancelled",
		"job_latency_p50_seconds", "job_latency_p90_seconds", "job_latency_p99_seconds",
	} {
		if !strings.Contains(body, fmt.Sprintf("%q", field)) {
			t.Errorf("stats body missing field %q:\n%s", field, body)
		}
	}
}

// TestRunEndpointSampled: a cell with sample_period runs in sampled
// mode, returns the error-bound fields, keys separately from its exact
// twin, and bumps the engine's sampled-cell counter.
func TestRunEndpointSampled(t *testing.T) {
	ts, srv := newTestServer(t)
	spec := map[string]any{
		"workload": "Web Search", "design": "SHIFT",
		"sample_period": 3, "sample_interval": 500,
	}
	var got runResponse
	if code := postJSON(t, ts.URL+"/v1/run", spec, &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !got.Result.Sampled || got.Result.SampledIntervals != 4 {
		t.Fatalf("sampled metadata wrong: %+v", got.Result)
	}
	if got.Result.ThroughputStdErr <= 0 || got.Result.MPKICI < got.Result.MPKIStdErr {
		t.Fatalf("degenerate error bounds: %+v", got.Result)
	}
	exactCfg, err := cellSpec{Workload: "Web Search", Design: "SHIFT"}.config(srv.base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key == exactCfg.Key() {
		t.Error("sampled cell shares the exact cell's key")
	}
	// The wire cell resolves to the same config the library would use.
	cfg := exactCfg
	cfg.Sampling = shift.Sampling{Period: 3, IntervalRecords: 500}
	want, err := shift.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result, want) {
		t.Error("served sampled result differs from library result")
	}

	var st statsView
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.SampledCells != 1 {
		t.Errorf("stats sampled_cells = %d, want 1", st.SampledCells)
	}
}

// TestFigureEndpointSampled: the sample query parameter regenerates a
// figure in sampled mode (different cells, same shape).
func TestFigureEndpointSampled(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/figures/fig7?workloads=Web+Search&sample=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "Figure 7") {
		t.Fatalf("sampled figure = %d %q", resp.StatusCode, body)
	}
	// A malformed policy is a client error, not a simulation failure.
	for _, q := range []string{
		"sample=-4",
		"sample=3&sample_warm=1.5",
		"sample=3&sample_confidence=0.42",
		"sample_interval=-1",
		"workloads=No+Such+Workload",
		"cores=99",
	} {
		getBody(t, ts.URL+"/v1/figures/fig7?"+q, http.StatusBadRequest)
	}
}

// TestFigureEndpointSamplingQueryParity: sample_warm and
// sample_confidence reach the experiment options exactly as the
// library's Sampling fields would — the served figure is
// byte-identical to the library rendering at the same policy.
func TestFigureEndpointSamplingQueryParity(t *testing.T) {
	ts, _ := newTestServer(t)
	body := getBody(t, ts.URL+
		"/v1/figures/fig7?workloads=Web+Search&sample=3&sample_warm=0.5&sample_confidence=0.99",
		http.StatusOK)
	opts := testOpts()
	opts.Workloads = []string{"Web Search"}
	opts.Sampling = shift.Sampling{Period: 3, WarmupFraction: 0.5, Confidence: 0.99}
	want, err := shift.RunExperiment("fig7", opts)
	if err != nil {
		t.Fatal(err)
	}
	if body != want {
		t.Error("served sampled figure differs from library rendering at the same policy")
	}
}
