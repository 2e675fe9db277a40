package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"shift"
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
// /v1/healthz on a fresh engine with an in-memory result store.
func newTestWorker(t *testing.T) (*httptest.Server, *Worker, *shift.Engine) {
	t.Helper()
	eng := shift.NewEngine(2, shift.NewResultCache())
	w := NewWorker(eng)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batch", w.HandleBatch)
	mux.HandleFunc("GET /v1/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, w, eng
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
	srv, w, _ := newTestWorker(t)
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
	if w.Batches() != 1 || w.cells.Load() != 2 {
		t.Fatalf("counters: %d batches / %d cells, want 1 / 2", w.Batches(), w.cells.Load())
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
