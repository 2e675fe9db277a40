package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"shift"
	"shift/internal/spec"
)

// tinyConfig is a fast fully-specified cell for wire-level tests.
func tinyConfig(d shift.Design) shift.Config {
	cfg := shift.DefaultRunConfig("Web Search", d)
	cfg.Cores = 8
	cfg.WarmupRecords = 6000
	cfg.MeasureRecords = 6000
	cfg.Seed = 1
	return cfg
}

// newTestWorker starts an httptest worker serving /v1/batch and
// /v1/healthz on a fresh engine with an in-memory result store. batches
// counts the batch requests it has been sent; the engine's Simulated
// count is the cells it ran.
func newTestWorker(t *testing.T) (srv *httptest.Server, batches *atomic.Int64, eng *shift.Engine) {
	t.Helper()
	eng = shift.NewEngine(2, shift.NewResultCache())
	w := NewWorker(eng)
	batches = new(atomic.Int64)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batch", func(rw http.ResponseWriter, r *http.Request) {
		batches.Add(1)
		w.HandleBatch(rw, r)
	})
	mux.HandleFunc("GET /v1/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	srv = httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, batches, eng
}

// postBatch posts cfgs to the worker and decodes the reply.
func postBatch(t *testing.T, url string, cfgs []shift.Config) (BatchResponse, int) {
	t.Helper()
	body, err := json.Marshal(BatchRequest{Cells: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatalf("decoding reply: %v", err)
		}
	}
	return br, resp.StatusCode
}

// TestConfigResultWireRoundTrip pins the property the whole fabric
// rests on: a Config survives JSON bit-exactly (same content-address
// key on both sides of the wire) and so does a RunResult.
func TestConfigResultWireRoundTrip(t *testing.T) {
	cfg := tinyConfig(shift.DesignSHIFT)
	cfg.ElimProb = 0.123456789012345678 // exercise float round-tripping
	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back shift.Config
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, back) {
		t.Fatalf("Config changed over the wire:\n  sent %+v\n  got  %+v", cfg, back)
	}
	if cfg.Key() != back.Key() {
		t.Fatalf("key changed over the wire: %s vs %s", cfg.Key(), back.Key())
	}

	res, err := shift.Run(tinyConfig(shift.DesignBaseline))
	if err != nil {
		t.Fatal(err)
	}
	rblob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var rback shift.RunResult
	if err := json.Unmarshal(rblob, &rback); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, rback) {
		t.Fatalf("RunResult changed over the wire:\n  sent %+v\n  got  %+v", res, rback)
	}
}

func TestWorkerHandleBatch(t *testing.T) {
	srv, batches, eng := newTestWorker(t)
	cfgs := []shift.Config{
		tinyConfig(shift.DesignBaseline),
		tinyConfig(shift.DesignSHIFT),
	}
	br, code := postBatch(t, srv.URL, cfgs)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(br.Results) != len(cfgs) {
		t.Fatalf("%d results, want %d", len(br.Results), len(cfgs))
	}
	for i, r := range br.Results {
		if r.Error != "" {
			t.Fatalf("cell %d failed: %s", i, r.Error)
		}
		if r.Key != cfgs[i].Key() {
			t.Fatalf("cell %d key %s, want %s", i, r.Key, cfgs[i].Key())
		}
		want, err := shift.Run(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*r.Result, want) {
			t.Fatalf("cell %d result differs from local Run", i)
		}
	}
	if n, cells := batches.Load(), eng.Stats().Simulated; n != 1 || cells != 2 {
		t.Fatalf("counters: %d batches / %d cells, want 1 / 2", n, cells)
	}
}

func TestWorkerHandleBatchRejectsBadInput(t *testing.T) {
	srv, _, _ := newTestWorker(t)
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d, want 400", resp.StatusCode)
	}
	if _, code := postBatch(t, srv.URL, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", code)
	}
}

// TestWorkerErrorParity checks the error contract of the wire: a
// failing cell's error travels raw (no worker-side "cell <label>:"
// prefix), positioned among succeeding neighbors, and matches what a
// local Run of the same config reports.
func TestWorkerErrorParity(t *testing.T) {
	srv, _, _ := newTestWorker(t)
	bad := tinyConfig(shift.Design(99))
	cfgs := []shift.Config{tinyConfig(shift.DesignBaseline), bad}
	br, code := postBatch(t, srv.URL, cfgs)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if br.Results[0].Error != "" || br.Results[0].Result == nil {
		t.Fatalf("healthy neighbor damaged: %+v", br.Results[0])
	}
	_, wantErr := shift.Run(bad)
	if wantErr == nil {
		t.Fatal("local Run of the bad config succeeded")
	}
	got := br.Results[1].Error
	if got != wantErr.Error() {
		t.Fatalf("wire error %q, want local error %q", got, wantErr.Error())
	}
	if strings.HasPrefix(got, "cell ") {
		t.Fatalf("wire error still carries the engine prefix: %q", got)
	}
}

// TestWorkerRefusesOutOfRangeCells: a peer's cell that shiftd's wire
// would refuse — a negative core count or history, a history above 2^20
// records — comes back as a per-cell error naming the field, and the
// worker simulates none of them.
func TestWorkerRefusesOutOfRangeCells(t *testing.T) {
	srv, _, eng := newTestWorker(t)
	cores, hist, huge := tinyConfig(shift.DesignSHIFT), tinyConfig(shift.DesignSHIFT), tinyConfig(shift.DesignPIF2K)
	cores.Cores = -3
	hist.HistEntries = -8
	huge.Cores, huge.HistEntries = 1, 1<<21
	cfgs := []shift.Config{cores, hist, huge}
	br, code := postBatch(t, srv.URL, cfgs)
	if code != http.StatusOK || len(br.Results) != len(cfgs) {
		t.Fatalf("status %d, %d results", code, len(br.Results))
	}
	for i, field := range []string{"cores", "hist_entries", "hist_entries"} {
		r := br.Results[i]
		if r.Result != nil || !strings.HasPrefix(r.Error, field+": ") {
			t.Errorf("cell %d: result %+v, error %q; want an error naming %s", i, r.Result, r.Error, field)
		}
		if r.Key != cfgs[i].Key() {
			t.Errorf("cell %d key %s, want %s", i, r.Key, cfgs[i].Key())
		}
	}
	if st := eng.Stats(); st.Simulated != 0 || st.StoreCells != 0 {
		t.Errorf("the worker simulated %d cells and stored %d", st.Simulated, st.StoreCells)
	}
}

// TestWorkerRegistersBatchSpecs: a cell whose workload is a spec ID runs
// on a worker whose registry has never seen the spec, because the batch
// carries the spec's canonical document; a document that compiles to
// another ID is refused with a 400. The spec is compiled here and never
// registered, as it would be in a coordinator's process only.
func TestWorkerRegistersBatchSpecs(t *testing.T) {
	compiled, err := spec.Load([]byte(`{"name": "carried by the batch", "workload": {"base": "Web Search", "scale": 0.5}}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	id := compiled.ID()
	if _, ok := spec.Lookup(id); ok {
		t.Fatalf("%s is registered before the batch carries it", id)
	}
	cfg := tinyConfig(shift.DesignSHIFT)
	cfg.Workload = id
	srv, _, _ := newTestWorker(t)
	post := func(docs map[string]json.RawMessage) (*http.Response, []byte) {
		t.Helper()
		// The body is built by hand so that it spells the wire format.
		body, err := json.Marshal(map[string]any{"cells": []shift.Config{cfg}, "specs": docs})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	other, err := spec.Load([]byte(`{"name": "carried by the batch", "workload": {"base": "Web Search", "scale": 0.25}}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := post(map[string]json.RawMessage{id: other.Canonical()}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("a document of another ID: status %d (%s), want 400", resp.StatusCode, body)
	}

	resp, body := post(map[string]json.RawMessage{id: compiled.Canonical()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 1 || br.Results[0].Error != "" || br.Results[0].Result == nil {
		t.Fatalf("the spec cell did not run: %s", body)
	}
	if r := br.Results[0]; r.Key != cfg.Key() || r.Result.Workload != "carried by the batch" {
		t.Fatalf("the spec cell ran as key %s, workload %q; want %s, %q", r.Key, r.Result.Workload, cfg.Key(), "carried by the batch")
	}
}

// TestWorkerRegistersOnlyAcceptedSpecs: a batch's spec document is
// registered for a cell that passes validation and for no other. A cell of
// 99 cores is answered with the cores error, and its spec stays unknown to
// the worker's process, whose registry never evicts.
func TestWorkerRegistersOnlyAcceptedSpecs(t *testing.T) {
	compiled, err := spec.Load([]byte(`{"name": "refused with its cell", "workload": {"base": "OLTP DB2", "scale": 0.5}}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	id := compiled.ID()
	cfg := tinyConfig(shift.DesignSHIFT)
	cfg.Workload, cfg.Cores = id, 99
	body, err := json.Marshal(BatchRequest{Cells: []shift.Config{cfg}, Specs: map[string]json.RawMessage{id: compiled.Canonical()}})
	if err != nil {
		t.Fatal(err)
	}
	srv, _, eng := newTestWorker(t)
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(br.Results) != 1 || br.Results[0].Result != nil || !strings.HasPrefix(br.Results[0].Error, "cores: ") {
		t.Fatalf("status %d, results %+v; want 200 and the cell's cores error", resp.StatusCode, br.Results)
	}
	if doc, err := shift.SpecCanonical(id); err == nil {
		t.Fatalf("the refused cell's spec is registered: %s", doc)
	}
	if st := eng.Stats(); st.Simulated != 0 {
		t.Errorf("the worker simulated %d cells", st.Simulated)
	}
}

// TestBatchSpecsCarryRegisteredDocuments: the coordinator's side puts
// the canonical document of every registered spec its cells name into
// the batch, once per ID, and nothing for catalog workloads.
func TestBatchSpecsCarryRegisteredDocuments(t *testing.T) {
	id, err := shift.LoadSpec([]byte(`{"name": "coordinator spec", "workload": {"base": "OLTP Oracle"}}`))
	if err != nil {
		t.Fatal(err)
	}
	cat := tinyConfig(shift.DesignBaseline)
	if got := batchSpecs([]shift.Config{cat}); len(got) != 0 {
		t.Fatalf("a catalog batch carries specs %v", got)
	}
	a, b := cat, tinyConfig(shift.DesignSHIFT)
	a.Workload, b.Workload = id, id
	doc, err := shift.SpecCanonical(id)
	if err != nil {
		t.Fatal(err)
	}
	got := batchSpecs([]shift.Config{cat, a, b})
	if len(got) != 1 || !bytes.Equal(got[id], doc) {
		t.Fatalf("batch specs %v, want only %s's canonical document", got, id)
	}
}
