package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"shift"
	"shift/internal/jobs"
)

// openDurable wires a journal-backed job manager exactly as main() does
// under -state-dir: the WAL at dir/jobs.wal plus the result store as
// the recovery lookup tier.
func openDurable(t *testing.T, dir string, rs shift.ResultStore, cfg jobs.Config) (*jobs.Manager, jobs.Journal) {
	t.Helper()
	journal, err := jobs.OpenWAL(filepath.Join(dir, "jobs.wal"))
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	cfg.Journal = journal
	cfg.Lookup = rs.Lookup
	jm, err := jobs.Open(cfg)
	if err != nil {
		t.Fatalf("jobs.Open: %v", err)
	}
	return jm, journal
}

// serveDurable exposes the manager over the full shiftd handler with
// main()'s drain Retry-After wiring.
func serveDurable(engine *shift.Engine, rs shift.ResultStore, jm *jobs.Manager) *httptest.Server {
	srv := newServer(engine, rs, testOpts(), jm, 1<<20)
	srv.drainRetryAfter = 5
	return httptest.NewServer(srv.handler())
}

// getStats decodes GET /v1/stats.
func getStats(t *testing.T, url string) statsView {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsView
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCrashRestartRecovery is the durability acceptance test: the
// process dies SIGKILL-style mid-job — one cell completed and
// journaled, one in flight, one still queued, a streaming client
// attached, and a torn half-written journal record on disk — and a
// fresh process over the same state dir and store finishes the job.
// The completed cell is restored from the store without re-simulation
// (asserted via the new engine's Simulated counter), the recovered
// results are byte-identical to /v1/grid, and the torn tail is
// discarded and reported.
func TestCrashRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	rs := shift.NewResultCache() // stands in for the durable -cache-dir tier

	// Instance 1: a single worker whose second cell blocks at a gate, so
	// the crash lands with deterministic job progress.
	engine1 := shift.NewEngine(0, rs)
	var passed atomic.Int32
	blockedAt := make(chan struct{}, 8)
	gate := make(chan struct{})
	jm1, journal1 := openDurable(t, dir, rs, jobs.Config{
		Workers: 1,
		Run: func(cfg shift.Config) (shift.RunResult, error) {
			if passed.Add(1) > 1 {
				blockedAt <- struct{}{}
				<-gate
				return shift.RunResult{}, errors.New("crashed mid-cell")
			}
			return engine1.RunOne(cfg)
		},
	})
	t.Cleanup(func() { jm1.Close() })
	ts1 := serveDurable(engine1, rs, jm1)

	// Ascending cost: the worker completes cell 0, blocks on cell 1,
	// leaves cell 2 queued.
	cells := []map[string]any{
		{"workload": "Web Search", "design": "Baseline", "measure_records": 1000},
		{"workload": "Web Search", "design": "SHIFT", "measure_records": 2000},
		{"workload": "Web Search", "design": "TIFS", "measure_records": 3000},
	}
	sub := submitJob(t, ts1.URL, cells)
	select {
	case <-blockedAt:
	case <-time.After(10 * time.Second):
		t.Fatal("second cell never started")
	}

	// A streaming client is mid-read when the process dies: it has seen
	// the first cell land.
	stream, err := http.Get(ts1.URL + sub.StreamURL)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stream.Body)
	if !sc.Scan() {
		t.Fatalf("stream yielded nothing: %v", sc.Err())
	}
	var first jobStreamEvent
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Type != "cell" || first.Index == nil || *first.Index != 0 {
		t.Fatalf("first stream event = %+v, want cell 0", first)
	}

	// Crash: the listener and journal vanish with the process; the
	// in-flight cell dies unjournaled. Only then is the gate released,
	// so its completion can never reach the journal or the store.
	stream.Body.Close()
	ts1.Close()
	journal1.Close()
	close(gate)

	// The crash also interrupted an append: a length prefix promising 64
	// bytes with only 10 behind it — exactly what a torn write leaves.
	f, err := os.OpenFile(filepath.Join(dir, "jobs.wal"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var torn [14]byte
	binary.BigEndian.PutUint32(torn[:4], 64)
	if _, err := f.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Instance 2: a fresh engine over the same store and state dir.
	engine2 := shift.NewEngine(0, rs)
	jm2, _ := openDurable(t, dir, rs, jobs.Config{Workers: 2, RunBatch: engine2.RunKeyed})
	t.Cleanup(func() { jm2.Close() })
	ts2 := serveDurable(engine2, rs, jm2)
	t.Cleanup(ts2.Close)

	st := awaitJobState(t, ts2.URL, sub.ID, "done")
	if st.Completed != 3 || st.Failed != 0 {
		t.Fatalf("recovered job = %+v, want 3 completed", st)
	}

	// The journaled completed cell resolved through the store: only the
	// in-flight and queued cells were simulated again.
	if sim := engine2.Stats().Simulated; sim != 2 {
		t.Errorf("new process simulated %d cells, want 2 (stored cell must not re-run)", sim)
	}

	stats := getStats(t, ts2.URL)
	if stats.Recovery == nil || stats.Journal == nil {
		t.Fatalf("stats missing journal/recovery blocks: %+v", stats)
	}
	if r := stats.Recovery; r.JobsRecovered != 1 || r.CellsRestored != 1 || r.CellsRequeued != 2 {
		t.Errorf("recovery stats = %+v, want 1 job recovered, 1 restored, 2 requeued", r)
	}
	if r := stats.Recovery; r.TornTailRecords != 1 || r.TornTailBytes != int64(len(torn)) {
		t.Errorf("torn tail = %d records / %d bytes, want 1 / %d", r.TornTailRecords, r.TornTailBytes, len(torn))
	}

	// Acceptance golden: the recovered job's results are byte-identical
	// to the synchronous /v1/grid reply for the same cells.
	body, _ := json.Marshal(map[string]any{"cells": cells})
	resp, err := http.Post(ts2.URL+"/v1/grid", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var gridDoc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&gridDoc); err != nil {
		t.Fatal(err)
	}
	jresp, err := http.Get(ts2.URL + sub.StatusURL)
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var jobDoc map[string]json.RawMessage
	if err := json.NewDecoder(jresp.Body).Decode(&jobDoc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gridDoc["results"], jobDoc["results"]) {
		t.Errorf("recovered job results differ from /v1/grid:\n--- grid ---\n%s\n--- job ---\n%s",
			gridDoc["results"], jobDoc["results"])
	}

	// The stream of the recovered job replays every cell, then "end" —
	// the client that was cut off mid-read reconnects and catches up.
	sresp, err := http.Get(ts2.URL + sub.StreamURL)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var events []jobStreamEvent
	sc = bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev jobStreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if len(events) != 4 || events[3].Type != "end" || events[3].State != "done" {
		t.Fatalf("recovered stream = %d events (%+v), want 3 cells + end/done", len(events), events)
	}

	// Fresh submissions never reuse a journaled ID.
	sub2 := submitJob(t, ts2.URL, cells[:1])
	if sub2.ID == sub.ID {
		t.Fatalf("new job reused recovered ID %s", sub.ID)
	}
	awaitJobState(t, ts2.URL, sub2.ID, "done")
}

// TestRecoverySkipsStoredCells is the focused regression for the
// restore path: a job that finished completely before the crash comes
// back terminal with its results, and the new engine simulates nothing.
func TestRecoverySkipsStoredCells(t *testing.T) {
	dir := t.TempDir()
	rs := shift.NewResultCache()

	engine1 := shift.NewEngine(0, rs)
	jm1, journal1 := openDurable(t, dir, rs, jobs.Config{Workers: 1, RunBatch: engine1.RunKeyed})
	t.Cleanup(func() { jm1.Close() })
	ts1 := serveDurable(engine1, rs, jm1)
	sub := submitJob(t, ts1.URL, []map[string]any{
		{"workload": "Web Search", "design": "Baseline", "measure_records": 1000},
		{"workload": "Web Search", "design": "SHIFT", "measure_records": 1000},
	})
	want := awaitJobState(t, ts1.URL, sub.ID, "done")
	ts1.Close()
	journal1.Close() // crash: no drain, no checkpoint

	engine2 := shift.NewEngine(0, rs)
	jm2, _ := openDurable(t, dir, rs, jobs.Config{Workers: 1, RunBatch: engine2.RunKeyed})
	t.Cleanup(func() { jm2.Close() })
	ts2 := serveDurable(engine2, rs, jm2)
	t.Cleanup(ts2.Close)

	got := getJobStatus(t, ts2.URL, sub.ID)
	if got.State != "done" || got.Completed != 2 {
		t.Fatalf("fully-done job after restart = %+v, want done/2", got)
	}
	for i := range want.Results {
		if got.Results[i] == nil || got.Results[i].Key != want.Results[i].Key {
			t.Fatalf("result %d changed across restart: %+v vs %+v", i, got.Results[i], want.Results[i])
		}
	}
	if sim := engine2.Stats().Simulated; sim != 0 {
		t.Errorf("restart simulated %d cells for a fully-stored job, want 0", sim)
	}
	if r := getStats(t, ts2.URL).Recovery; r == nil || r.JobsTerminal != 1 || r.CellsRequeued != 0 {
		t.Errorf("recovery stats = %+v, want 1 terminal job, 0 requeued", r)
	}
}

// TestDrainRefusesSubmissionsCleanly covers the shutdown window at the
// HTTP layer: while the manager drains, /v1/jobs answers a clean 503
// with an integer Retry-After (not a connection reset), so does a
// /v1/grid whose job was queued when the drain began (instead of hanging
// until the grace runs out), /v1/readyz reports "draining", and after a
// restart over the checkpointed journal
// the service passes through "recovering" back to "ready" with the
// queued work finished.
func TestDrainRefusesSubmissionsCleanly(t *testing.T) {
	dir := t.TempDir()
	rs := shift.NewResultCache()

	engine1 := shift.NewEngine(0, rs)
	started := make(chan struct{}, 8)
	release := make(chan struct{}, 8)
	jm1, _ := openDurable(t, dir, rs, jobs.Config{
		Workers: 1,
		Run: func(cfg shift.Config) (shift.RunResult, error) {
			started <- struct{}{}
			<-release
			return engine1.RunOne(cfg)
		},
	})
	ts1 := serveDurable(engine1, rs, jm1)

	// One cell running (blocked), one queued.
	sub := submitJob(t, ts1.URL, []map[string]any{
		{"workload": "Web Search", "design": "Baseline", "measure_records": 1000},
		{"workload": "Web Search", "design": "SHIFT", "measure_records": 2000},
	})
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first cell never started")
	}
	// A synchronous grid whose job is queued behind them.
	gridDone := make(chan *http.Response, 1)
	go func() {
		body, _ := json.Marshal(map[string]any{"cells": []map[string]any{
			{"workload": "Web Search", "design": "NextLine", "measure_records": 1000},
		}})
		resp, err := (&http.Client{Timeout: 10 * time.Second}).Post(ts1.URL+"/v1/grid", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("grid during drain failed at transport level: %v", err)
			resp = nil
		}
		gridDone <- resp
	}()
	for getStats(t, ts1.URL).JobsAdmitted != 2 {
		time.Sleep(time.Millisecond)
	}

	// SIGTERM: main drains the manager while the listener stays open.
	drained := make(chan error, 1)
	go func() { drained <- jm1.Drain(context.Background()) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, doc := getReadyz(t, ts1.URL); code == http.StatusServiceUnavailable && doc.Status == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never reported draining")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Submissions during the window get a clean, parseable refusal.
	body, _ := json.Marshal(map[string]any{"cells": []map[string]any{
		{"workload": "Web Search", "design": "Baseline"},
	}})
	resp, err := http.Post(ts1.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submission during drain failed at transport level: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer of seconds", resp.Header.Get("Retry-After"))
	}
	if !getStats(t, ts1.URL).Draining {
		t.Error("stats do not report draining")
	}
	// The drain leaves the grid's cell queued: its caller is answered the
	// same clean refusal instead of waiting out the grace.
	if resp := <-gridDone; resp != nil {
		resp.Body.Close()
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); resp.StatusCode != http.StatusServiceUnavailable || err != nil || ra < 1 {
			t.Fatalf("grid queued when the drain began = %d (Retry-After %q), want 503 with Retry-After",
				resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}

	// The running cell finishes; the drain completes with the queued
	// cell checkpointed, and the process exits.
	release <- struct{}{}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain never completed")
	}
	ts1.Close()
	jm1.Close()

	// Restart: the queued cells — the job's and the grid's, journaled like
	// any job — are re-admitted; while they re-run the service reports
	// "recovering" at 200 — routable, catching up — and settles back to
	// "ready".
	engine2 := shift.NewEngine(0, rs)
	gate := make(chan struct{})
	jm2, _ := openDurable(t, dir, rs, jobs.Config{
		Workers: 1,
		Run: func(cfg shift.Config) (shift.RunResult, error) {
			<-gate
			return engine2.RunOne(cfg)
		},
	})
	t.Cleanup(func() { jm2.Close() })
	ts2 := serveDurable(engine2, rs, jm2)
	t.Cleanup(ts2.Close)

	if code, doc := getReadyz(t, ts2.URL); code != http.StatusOK || doc.Status != "recovering" || doc.Recovering != 2 {
		t.Fatalf("readyz during recovery = %d %+v, want 200 recovering/2", code, doc)
	}
	close(gate)
	awaitJobState(t, ts2.URL, sub.ID, "done")
	deadline = time.Now().Add(10 * time.Second)
	for {
		if code, doc := getReadyz(t, ts2.URL); code == http.StatusOK && doc.Status == "ready" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never returned to ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if r := getStats(t, ts2.URL).Recovery; r == nil || r.CellsRestored != 1 || r.CellsRequeued != 2 {
		t.Errorf("recovery after drained restart = %+v, want 1 restored / 2 requeued", r)
	}
}

// TestClusterMembershipSurvivesRestart: a worker that announced itself
// via POST /v1/cluster/join is still in the membership after the
// coordinator restarts over the same state dir.
func TestClusterMembershipSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.wal")
	persist, members, err := openMembership(path)
	if err != nil {
		t.Fatalf("openMembership: %v", err)
	}
	if len(members) != 0 {
		t.Fatalf("fresh membership log lists %v", members)
	}

	ts1, srv1 := newCoordinatorServer(t)
	srv1.persistJoin = persist
	const addr = "http://worker-a:8081"
	join := func(ts *httptest.Server) int {
		body, _ := json.Marshal(joinRequest{Addr: addr})
		resp, err := http.Post(ts.URL+"/v1/cluster/join", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Joining twice is idempotent: one membership entry, one record.
	if code := join(ts1); code != http.StatusOK {
		t.Fatalf("join = %d", code)
	}
	if code := join(ts1); code != http.StatusOK {
		t.Fatalf("repeat join = %d", code)
	}

	// Coordinator restart: replay the log, re-join, as main() does.
	persist2, members2, err := openMembership(path)
	if err != nil {
		t.Fatalf("reopen membership: %v", err)
	}
	_ = persist2
	if len(members2) != 1 || members2[0] != addr {
		t.Fatalf("replayed members = %v, want [%s]", members2, addr)
	}
	ts2, srv2 := newCoordinatorServer(t)
	for _, m := range members2 {
		srv2.cluster.Join(m)
	}
	resp, err := http.Get(ts2.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc clusterView
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workers) != 1 || doc.Workers[0].Addr != addr {
		t.Fatalf("restarted coordinator membership = %+v, want the joined worker", doc.Workers)
	}
}
