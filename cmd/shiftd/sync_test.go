package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"shift"
	"shift/internal/jobs"
)

// postCells posts n Web Search cells as the given client to path — one
// cell's body to /v1/run, a cell list to /v1/grid and /v1/jobs — and
// returns the status and the Retry-After header.
func postCells(t *testing.T, url, path, client string, n int) (int, string) {
	t.Helper()
	designs := []string{"Baseline", "NextLine", "SHIFT", "TIFS"}
	cells := make([]map[string]any, n)
	for i := range cells {
		cells[i] = map[string]any{"workload": "Web Search", "design": designs[i]}
	}
	var v any = map[string]any{"cells": cells}
	if path == "/v1/run" {
		v = cells[0]
	}
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Client-ID", client)
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// TestSubmissionRefusalsAcrossEndpoints: /v1/run, /v1/grid and /v1/jobs
// are one way in, so each refuses a call the same way — 429 +
// Retry-After for a client whose bucket is dry, 400 for a job over the
// burst capacity, 503 + Retry-After when the queue is full or a drain has
// begun.
func TestSubmissionRefusalsAcrossEndpoints(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  jobs.Config
		// setup brings the server to the refusing state; busy cells are
		// left running or queued on the blocked runner.
		setup func(t *testing.T, url string, jm *jobs.Manager, started chan string)
		want  int
		retry bool
	}{
		{"bucket dry", jobs.Config{Rate: 1e-3, Burst: 1}, func(t *testing.T, url string, _ *jobs.Manager, _ chan string) {
			if code, _ := postCells(t, url, "/v1/jobs", "c", 1); code != http.StatusAccepted {
				t.Fatalf("draining the bucket: %d, want 202", code)
			}
		}, http.StatusTooManyRequests, true},
		{"over burst", jobs.Config{Burst: 0.5}, nil, http.StatusBadRequest, false},
		{"queue full", jobs.Config{Workers: 1, MaxQueue: 1}, func(t *testing.T, url string, _ *jobs.Manager, started chan string) {
			postCells(t, url, "/v1/jobs", "other", 1)
			awaitStarted(t, started)
			postCells(t, url, "/v1/jobs", "other", 1)
		}, http.StatusServiceUnavailable, true},
		{"draining", jobs.Config{Workers: 1}, func(t *testing.T, url string, jm *jobs.Manager, started chan string) {
			postCells(t, url, "/v1/jobs", "other", 1)
			awaitStarted(t, started)
			go jm.Drain(context.Background())
			for !getStats(t, url).Draining {
				time.Sleep(time.Millisecond)
			}
		}, http.StatusServiceUnavailable, true},
	} {
		for _, path := range []string{"/v1/run", "/v1/grid", "/v1/jobs"} {
			t.Run(tc.name+path, func(t *testing.T) {
				ts, started, release, jm := newBlockedServer(t, tc.cfg)
				defer func() {
					for i := 0; i < 2; i++ {
						release <- struct{}{}
					}
				}()
				if tc.setup != nil {
					tc.setup(t, ts.URL, jm, started)
				}
				code, retry := postCells(t, ts.URL, path, "c", 1)
				if code != tc.want {
					t.Errorf("status %d, want %d", code, tc.want)
				}
				if ra, err := strconv.Atoi(retry); tc.retry && (err != nil || ra < 1) {
					t.Errorf("Retry-After = %q, want a positive integer of seconds", retry)
				}
			})
		}
	}
}

// TestSyncCellRetriesWatchdogTimeout: a synchronous cell is a job cell,
// so a first attempt that hits the watchdog is retried (-job-retries)
// and the call answers 200 with the cell's result.
func TestSyncCellRetriesWatchdogTimeout(t *testing.T) {
	rs := shift.NewResultCache()
	engine := shift.NewEngine(0, rs)
	var attempts atomic.Int32
	jm := jobs.New(jobs.Config{
		Retries: 1,
		RunBatch: func(ks []shift.KeyedConfig) ([]shift.RunResult, []error) {
			if attempts.Add(1) == 1 {
				errs := make([]error, len(ks))
				for i := range errs {
					errs[i] = &shift.TimeoutError{Timeout: time.Millisecond, Cells: 1}
				}
				return make([]shift.RunResult, len(ks)), errs
			}
			return engine.RunKeyed(ks)
		},
	})
	t.Cleanup(jm.Close)
	srv := newServer(engine, rs, testOpts(), jm, 1<<20)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	var got runResponse
	if code := postJSON(t, ts.URL+"/v1/run", map[string]any{"workload": "Web Search", "design": "SHIFT"}, &got); code != http.StatusOK {
		t.Fatalf("status %d, want 200 after the retry", code)
	}
	cfg, err := cellSpec{Workload: "Web Search", Design: "SHIFT"}.config(srv.base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != cfg.Key() || got.Result.Design != "SHIFT" {
		t.Errorf("served %s / %+v, want the cell's key %s and result", got.Key, got.Result, cfg.Key())
	}
	if n := attempts.Load(); n != 2 {
		t.Errorf("%d attempts, want 2", n)
	}
}

// TestSyncCallsAreJobs: a /v1/run and a /v1/grid are admitted and
// counted like any job, and leave the registry once finished: their IDs
// were never handed out, and answer 404.
func TestSyncCallsAreJobs(t *testing.T) {
	ts, srv := newTestServer(t)
	if code := postJSON(t, ts.URL+"/v1/run", map[string]any{"workload": "Web Search", "design": "Baseline"}, nil); code != http.StatusOK {
		t.Fatalf("run = %d", code)
	}
	grid := map[string]any{"cells": []map[string]any{
		{"workload": "Web Search", "design": "Baseline"},
		{"workload": "Web Search", "design": "NextLine"},
	}}
	if code := postJSON(t, ts.URL+"/v1/grid", grid, nil); code != http.StatusOK {
		t.Fatalf("grid = %d", code)
	}
	if st := getStats(t, ts.URL); st.JobsAdmitted != 2 {
		t.Errorf("jobs_admitted = %d, want 2", st.JobsAdmitted)
	}
	if st := srv.jobs.Stats(); st.Retained != 0 || st.RetainedCells != 0 || st.Evicted != 2 {
		t.Errorf("registry holds %d jobs of %d cells, %d evicted; want none held, 2 evicted", st.Retained, st.RetainedCells, st.Evicted)
	}
	for _, id := range []string{"j-000001", "j-000002"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET job %s = %d, want 404", id, resp.StatusCode)
		}
	}
}
