package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"shift"
	"shift/internal/jobs"
)

// submitJob posts a job and returns the decoded 202 response.
func submitJob(t *testing.T, url string, cells []map[string]any) jobSubmitResponse {
	t.Helper()
	code, resp := postJob(t, url, cells, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	return resp
}

// postJob posts a job as the given client and returns the status code
// and (when 202) the decoded response.
func postJob(t *testing.T, url string, cells []map[string]any, client string) (int, jobSubmitResponse) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"cells": cells})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set("X-Client-ID", client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out jobSubmitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

// getJobStatus fetches a job's status document.
func getJobStatus(t *testing.T, url, id string) jobStatusResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status endpoint = %d, want 200", resp.StatusCode)
	}
	var st jobStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// awaitJobState polls until the job reaches the wanted state.
func awaitJobState(t *testing.T, url, id, want string) jobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getJobStatus(t, url, id)
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q, want %q", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobLifecycle covers the async happy path end to end: submit →
// 202 with id and links, poll to done, stream the full replay, and
// confirm the final status carries every result.
func TestJobLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)
	sub := submitJob(t, ts.URL, []map[string]any{
		{"workload": "Web Search", "design": "Baseline", "label": "base"},
		{"workload": "Web Search", "design": "SHIFT"},
	})
	if sub.ID == "" || sub.State != "queued" || sub.Cells != 2 {
		t.Fatalf("submit response = %+v", sub)
	}
	if sub.StatusURL != "/v1/jobs/"+sub.ID || sub.StreamURL != "/v1/jobs/"+sub.ID+"/stream" {
		t.Fatalf("submit links = %q, %q", sub.StatusURL, sub.StreamURL)
	}

	st := awaitJobState(t, ts.URL, sub.ID, "done")
	if st.Completed != 2 || st.Failed != 0 || st.Dropped != 0 {
		t.Fatalf("final status = %+v, want 2 completed", st)
	}
	if st.Started == nil || st.Finished == nil {
		t.Fatal("final status missing timestamps")
	}
	for i, r := range st.Results {
		if r == nil || r.Key == "" {
			t.Fatalf("result %d missing: %+v", i, r)
		}
	}
	if st.Results[0].Label != "base" || st.Results[1].Label != "Web Search/SHIFT" {
		t.Fatalf("labels = %q, %q", st.Results[0].Label, st.Results[1].Label)
	}

	// The stream of a finished job replays every cell event, then "end".
	resp, err := http.Get(ts.URL + sub.StreamURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content-type = %q", ct)
	}
	var events []jobStreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev jobStreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("%d stream events, want 3 (2 cells + end)", len(events))
	}
	seen := map[int]bool{}
	for _, ev := range events[:2] {
		if ev.Type != "cell" || ev.Index == nil || ev.Result == nil || ev.Error != "" {
			t.Fatalf("cell event = %+v", ev)
		}
		seen[*ev.Index] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("cell events cover %v, want both cells", seen)
	}
	if events[2].Type != "end" || events[2].State != "done" {
		t.Fatalf("last event = %+v, want end/done", events[2])
	}
}

// TestJobResultsMatchGrid is the acceptance golden: a drained job's
// "results" array is byte-identical to the synchronous /v1/grid reply
// for the same cells — even though SJF executes them in a different
// order than requested.
func TestJobResultsMatchGrid(t *testing.T) {
	ts, _ := newTestServer(t)
	// Descending cost: the SJF queue runs these in reverse request
	// order, so index-aligned fan-in (not arrival order) is what keeps
	// the arrays identical.
	cells := []map[string]any{
		{"workload": "Web Search", "design": "SHIFT", "measure_records": 6000},
		{"workload": "Web Search", "design": "Baseline", "measure_records": 4000},
		{"workload": "Web Search", "design": "NextLine", "measure_records": 3000, "sample_period": 3},
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
		t.Errorf("job results are not byte-identical to /v1/grid:\n--- grid ---\n%s\n--- job ---\n%s",
			gridDoc["results"], jobDoc["results"])
	}
}

// TestReplayedJobsShareResults: two jobs of equal cells hand out cell
// events that point at one shared result per cell, and the sharing shows
// nowhere on the wire: the two jobs' NDJSON streams are byte-identical,
// and so are the "results" of their GET /v1/jobs/{id} bodies, to each
// other and to /v1/grid's for the same cells. The cells share one record
// stream, so each job is one batch and its events land in one order.
func TestReplayedJobsShareResults(t *testing.T) {
	ts, srv := newTestServer(t)
	cells := []map[string]any{
		{"workload": "OLTP Oracle", "design": "SHIFT", "warmup_records": 500, "measure_records": 500},
		{"workload": "OLTP Oracle", "design": "Baseline", "warmup_records": 500, "measure_records": 500, "label": "base"},
		{"workload": "OLTP Oracle", "design": "PIF_2K", "warmup_records": 500, "measure_records": 500},
	}
	var gridDoc map[string]json.RawMessage
	if code := postJSON(t, ts.URL+"/v1/grid", map[string]any{"cells": cells}, &gridDoc); code != http.StatusOK {
		t.Fatalf("grid status %d", code)
	}
	var streams, results []string
	var events [][]jobs.Event
	for k := 0; k < 2; k++ {
		sub := submitJob(t, ts.URL, cells)
		awaitJobState(t, ts.URL, sub.ID, "done")
		j, _ := srv.jobs.Get(sub.ID)
		evs, _, _ := j.EventsSince(0)
		events = append(events, evs)
		streams = append(streams, getBody(t, ts.URL+sub.StreamURL, http.StatusOK))
		var jobDoc map[string]json.RawMessage
		if err := json.Unmarshal([]byte(getBody(t, ts.URL+sub.StatusURL, http.StatusOK)), &jobDoc); err != nil {
			t.Fatal(err)
		}
		results = append(results, string(jobDoc["results"]))
	}
	if len(events[0]) != len(cells)+1 || len(events[1]) != len(cells)+1 {
		t.Fatalf("events = %d and %d, want %d each", len(events[0]), len(events[1]), len(cells)+1)
	}
	for p, ev := range events[0][:len(cells)] {
		other := events[1][p]
		if ev.Result == nil || ev.Index != other.Index || ev.Result != other.Result {
			t.Errorf("event %d: cell %d's result %p, the replay's cell %d's %p; want one shared result",
				p, ev.Index, ev.Result, other.Index, other.Result)
		}
	}
	if streams[0] != streams[1] {
		t.Errorf("the replayed job's stream differs:\n%s\nwant\n%s", streams[1], streams[0])
	}
	for k, got := range results {
		if got != string(gridDoc["results"]) {
			t.Errorf("job %d results are not byte-identical to /v1/grid:\n--- grid ---\n%s\n--- job ---\n%s",
				k, gridDoc["results"], got)
		}
	}
}

// newBlockedServer stands up a server whose job runner blocks until
// released, for deterministic queue/cancel tests. The runner serves the
// synchronous endpoints too, as every cell is a job.
func newBlockedServer(t *testing.T, cfg jobs.Config) (*httptest.Server, chan string, chan struct{}, *jobs.Manager) {
	t.Helper()
	started := make(chan string, 64)
	release := make(chan struct{}, 64)
	cfg.Run = func(c shift.Config) (shift.RunResult, error) {
		started <- c.Workload + "/" + c.Design.String()
		<-release
		return shift.RunResult{Workload: c.Workload, Design: c.Design.String()}, nil
	}
	rs := shift.NewResultCache()
	engine := shift.NewEngine(0, rs)
	jm := jobs.New(cfg)
	t.Cleanup(jm.Close)
	srv := newServer(engine, rs, testOpts(), jm, 1<<20)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, started, release, jm
}

// awaitStarted waits for the blocked runner to pick up a cell.
func awaitStarted(t *testing.T, started chan string) string {
	t.Helper()
	select {
	case s := <-started:
		return s
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a job cell to start")
		return ""
	}
}

// TestJobCancel: DELETE drops queued cells immediately while the
// running cell finishes and publishes its result.
func TestJobCancel(t *testing.T) {
	ts, started, release, _ := newBlockedServer(t, jobs.Config{Workers: 1})
	// Ascending cost: the single worker picks cell 0 first.
	sub := submitJob(t, ts.URL, []map[string]any{
		{"workload": "Web Search", "design": "Baseline", "measure_records": 1000},
		{"workload": "Web Search", "design": "SHIFT", "measure_records": 2000},
		{"workload": "Web Search", "design": "TIFS", "measure_records": 3000},
	})
	if got := awaitStarted(t, started); got != "Web Search/Baseline" {
		t.Fatalf("first started cell = %q", got)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+sub.StatusURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	var st jobStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.CancelRequested || st.Dropped != 2 || st.State != "running" {
		t.Fatalf("post-cancel status = %+v, want running with 2 dropped", st)
	}

	release <- struct{}{}
	final := awaitJobState(t, ts.URL, sub.ID, "cancelled")
	if final.Completed != 1 || final.Results[0] == nil || final.Results[1] != nil || final.Results[2] != nil {
		t.Fatalf("final status = %+v, want only cell 0 completed", final)
	}
	if final.CancelRequested {
		t.Error("terminal status still advertises cancel_requested")
	}
}

// cancelRefusingJournal is a journal that refuses every cancellation.
type cancelRefusingJournal struct{ jobs.Journal }

func (j cancelRefusingJournal) Append(e jobs.Entry) error {
	if e.Op == jobs.OpCancel {
		return errors.New("disk full")
	}
	return j.Journal.Append(e)
}

// TestJobCancelJournalRefused: a cancellation the journal refuses would
// not survive a restart, so DELETE answers 503 and the job runs on.
func TestJobCancelJournalRefused(t *testing.T) {
	jn, err := jobs.OpenWAL(filepath.Join(t.TempDir(), "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	ts, started, release, _ := newBlockedServer(t, jobs.Config{Workers: 1, Journal: cancelRefusingJournal{jn}})
	sub := submitJob(t, ts.URL, []map[string]any{
		{"workload": "Web Search", "design": "Baseline", "measure_records": 1000},
		{"workload": "Web Search", "design": "SHIFT", "measure_records": 2000},
	})
	awaitStarted(t, started)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+sub.StatusURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cancel refused by the journal answered %d, want 503", resp.StatusCode)
	}
	if st := getJobStatus(t, ts.URL, sub.ID); st.CancelRequested || st.Dropped != 0 || st.State == "cancelled" {
		t.Fatalf("status after the refused cancel = %+v, want the job running", st)
	}
	release <- struct{}{}
	release <- struct{}{}
	if final := awaitJobState(t, ts.URL, sub.ID, "done"); final.Completed != 2 {
		t.Fatalf("final status = %+v, want both cells completed", final)
	}
}

// TestJobStreamLive: a stream opened while the job runs delivers each
// cell event as it lands and terminates with the end event.
func TestJobStreamLive(t *testing.T) {
	ts, started, release, _ := newBlockedServer(t, jobs.Config{Workers: 1})
	sub := submitJob(t, ts.URL, []map[string]any{
		{"workload": "Web Search", "design": "Baseline"},
	})
	awaitStarted(t, started)

	resp, err := http.Get(ts.URL + sub.StreamURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	release <- struct{}{}
	var events []jobStreamEvent
	for sc.Scan() {
		var ev jobStreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if len(events) != 2 || events[0].Type != "cell" || events[1].Type != "end" || events[1].State != "done" {
		t.Fatalf("live stream events = %+v, want one cell then end/done", events)
	}
}

// countingListener counts the Write calls on every connection it
// accepts: each is one send on the socket.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestJobStreamFinishedJobOneWrite: the stream of a job that is already
// terminal goes out in one socket write — header, events and end of the
// response together, with no flush in between — and its body is the
// NDJSON the events encode to: one cell line, then the end line.
func TestJobStreamFinishedJobOneWrite(t *testing.T) {
	want := shift.RunResult{Workload: "Web Search", Design: "SHIFT", Throughput: 1.25, MPKI: 3.5}
	jm := jobs.New(jobs.Config{RunBatch: func([]shift.KeyedConfig) ([]shift.RunResult, []error) {
		return []shift.RunResult{want}, make([]error, 1)
	}})
	t.Cleanup(jm.Close)
	rs := shift.NewResultCache()
	srv := newServer(shift.NewEngine(1, rs), rs, testOpts(), jm, 1<<20)
	var writes atomic.Int64
	ts := httptest.NewUnstartedServer(srv.handler())
	ts.Listener = countingListener{ts.Listener, &writes}
	ts.Start()
	t.Cleanup(ts.Close)

	cfg := shift.DefaultRunConfig("Web Search", shift.DesignSHIFT)
	j, err := jm.Submit([]shift.Cell{{Label: "one", Config: cfg}})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; ; {
		evs, terminal, changed := j.EventsSince(n)
		if n += len(evs); terminal {
			break
		}
		<-changed
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + j.ID() + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := writes.Load(); got != 1 {
		t.Errorf("the stream of a finished job took %d socket writes, want 1", got)
	}
	idx := 0
	var wantBody bytes.Buffer
	enc := json.NewEncoder(&wantBody)
	enc.Encode(jobStreamEvent{Type: "cell", Index: &idx, Label: "one", Key: cfg.Key(), Result: &want})
	enc.Encode(jobStreamEvent{Type: "end", State: "done"})
	if !bytes.Equal(body, wantBody.Bytes()) {
		t.Errorf("stream body:\n%s\nwant:\n%s", body, wantBody.Bytes())
	}
}

// TestJobAdmission429: a client that drains its token bucket gets 429
// with a Retry-After header; other clients are unaffected; a job larger
// than the burst capacity is rejected outright with 400.
func TestJobAdmission429(t *testing.T) {
	rs := shift.NewResultCache()
	engine := shift.NewEngine(0, rs)
	jm := jobs.New(jobs.Config{Rate: 1, Burst: 2, RunBatch: engine.RunKeyed})
	t.Cleanup(jm.Close)
	srv := newServer(engine, rs, testOpts(), jm, 1<<20)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	cells := []map[string]any{
		{"workload": "Web Search", "design": "Baseline"},
		{"workload": "Web Search", "design": "NextLine"},
	}
	if code, _ := postJob(t, ts.URL, cells, "alice"); code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202 (bucket starts full)", code)
	}
	body, _ := json.Marshal(map[string]any{"cells": cells})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Client-ID", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("drained submit = %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer of seconds", resp.Header.Get("Retry-After"))
	}
	// Admission is per client: bob's bucket is untouched.
	if code, _ := postJob(t, ts.URL, cells, "bob"); code != http.StatusAccepted {
		t.Fatalf("other client = %d, want 202", code)
	}
	// A 3-cell job can never fit a burst of 2: reject now, not later.
	big := append(cells, map[string]any{"workload": "Web Search", "design": "SHIFT"})
	if code, _ := postJob(t, ts.URL, big, "carol"); code != http.StatusBadRequest {
		t.Fatalf("over-burst job = %d, want 400", code)
	}

	var stats statsView
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.JobsAdmitted != 2 || stats.JobsRejected != 2 {
		t.Fatalf("stats = %+v, want 2 admitted, 2 rejected", stats)
	}
}

// TestJobQueueFull503: submissions past the queued-cell bound answer
// 503 with Retry-After, and cost the refused client no admission tokens:
// once the queue frees, its bucket admits a job of its whole burst.
func TestJobQueueFull503(t *testing.T) {
	ts, started, release, _ := newBlockedServer(t, jobs.Config{Workers: 1, MaxQueue: 2, Rate: 1e-3, Burst: 2})
	one := []map[string]any{{"workload": "Web Search", "design": "Baseline"}}
	two := []map[string]any{
		{"workload": "Web Search", "design": "NextLine"},
		{"workload": "Web Search", "design": "SHIFT"},
	}
	if code, _ := postJob(t, ts.URL, one, "first"); code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	awaitStarted(t, started) // the cell left the queue and occupies the worker
	if code, _ := postJob(t, ts.URL, two, "second"); code != http.StatusAccepted {
		t.Fatalf("second submit = %d, want 202 (fills the queue)", code)
	}
	body, _ := json.Marshal(map[string]any{"cells": one})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("X-Client-ID", "refused")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("overflow submit = %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	release <- struct{}{}
	awaitStarted(t, started) // the second job left the queue
	if code, _ := postJob(t, ts.URL, two, "refused"); code != http.StatusAccepted {
		t.Fatalf("the refused client's full burst once the queue freed = %d, want 202", code)
	}
	for i := 0; i < 4; i++ {
		release <- struct{}{}
	}
}

// TestJobNotFound: status, stream, and cancel of an unknown id 404.
func TestJobNotFound(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, path := range []string{"/v1/jobs/j-999999", "/v1/jobs/j-999999/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j-999999", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job = %d, want 404", resp.StatusCode)
	}
	// Bad submissions: empty cell list and invalid cells are 400s.
	if code, _ := postJob(t, ts.URL, nil, ""); code != http.StatusBadRequest {
		t.Errorf("empty job = %d, want 400", code)
	}
	bad := []map[string]any{{"workload": "No Such Workload", "design": "SHIFT"}}
	if code, _ := postJob(t, ts.URL, bad, ""); code != http.StatusBadRequest {
		t.Errorf("invalid cell = %d, want 400", code)
	}
}

// metricLine matches one Prometheus sample line: name, optional
// labels, a space, and a number.
var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$`)

// TestMetricsEndpoint: /v1/metrics serves parseable Prometheus text
// exposition covering the queue, admission, latency, and engine
// counters.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	// Generate some traffic so the counters are nonzero.
	sub := submitJob(t, ts.URL, []map[string]any{{"workload": "Web Search", "design": "Baseline"}})
	awaitJobState(t, ts.URL, sub.ID, "done")

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content-type = %q, want Prometheus text 0.0.4", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var body strings.Builder
	types := map[string]bool{}
	for sc.Scan() {
		line := sc.Text()
		body.WriteString(line + "\n")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Errorf("malformed TYPE line %q", line)
				continue
			}
			types[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Errorf("unparseable metric line %q", line)
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if !types[name] && !types[base] {
			t.Errorf("sample %q has no preceding TYPE declaration", name)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"shiftd_uptime_seconds", "shiftd_requests_total",
		"shiftd_jobs_queue_depth", "shiftd_jobs_admitted_total",
		"shiftd_jobs_rejected_total", "shiftd_jobs_cancelled_total",
		`shiftd_job_latency_seconds{quantile="0.5"}`,
		"shiftd_job_latency_seconds_sum", "shiftd_job_latency_seconds_count",
		"shiftd_store_hits_total", "shiftd_cells_simulated_total",
		"shiftd_cells_sampled_total",
	} {
		if !strings.Contains(body.String(), want) {
			t.Errorf("metrics body missing %q", want)
		}
	}
	if !strings.Contains(body.String(), "shiftd_jobs_admitted_total 1") {
		t.Errorf("admitted counter not reflected:\n%s", body.String())
	}
}

// TestBodyLimit413: request bodies past -max-body answer 413.
func TestBodyLimit413(t *testing.T) {
	rs := shift.NewResultCache()
	engine := shift.NewEngine(0, rs)
	jm := jobs.New(jobs.Config{RunBatch: engine.RunKeyed})
	t.Cleanup(jm.Close)
	srv := newServer(engine, rs, testOpts(), jm, 256)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	big := make([]map[string]any, 64)
	for i := range big {
		big[i] = map[string]any{"workload": "Web Search", "design": "Baseline"}
	}
	body, _ := json.Marshal(map[string]any{"cells": big})
	for _, path := range []string{"/v1/run", "/v1/grid", "/v1/jobs"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with oversized body = %d, want 413", path, resp.StatusCode)
		}
	}
	// A small body still works.
	resp, err := http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"workload": "Web Search", "design": "Baseline"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("small body = %d, want 200", resp.StatusCode)
	}
}

// TestWriteRunError maps engine/context failures to statuses: timeout
// → 504, client disconnect → 503, anything else → 500.
func TestWriteRunError(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"cancel", context.Canceled, http.StatusServiceUnavailable},
		{"other", errors.New("boom"), http.StatusInternalServerError},
	} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/run", nil)
		writeRunError(rec, req, tc.err)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
		}
	}
	// The request context's own verdict wins even when the error value
	// is a bare context.Canceled (await returns ctx.Err() on timeout
	// via cause-less cancellation too).
	rec := httptest.NewRecorder()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/run", nil).WithContext(ctx)
	writeRunError(rec, req, context.Canceled)
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("expired request context: status %d, want 504", rec.Code)
	}
}

// TestJobRunsStreamSharingCellsAsOneBatch is the batch queue end to end,
// wired as main() wires it: a job of two workloads × six designs is two
// batches — each generates its stream once — every result equals
// shift.Run of the resolved cell bit for bit, and the counters say so:
// over the cold job batched == simulated == store_misses == cells with
// no store hit, job_batches 2 and job_batch_cells 12; the same job again
// simulates nothing and hits the store once per cell. A member that
// panics fails alone.
func TestJobRunsStreamSharingCellsAsOneBatch(t *testing.T) {
	ts, srv := newTestServer(t)
	designs := []string{"Baseline", "NextLine", "PIF_2K", "PIF_32K", "ZeroLat-SHIFT", "SHIFT"}
	var cells []map[string]any
	var specs []cellSpec
	for _, d := range designs {
		for _, w := range []string{"Web Search", "OLTP Oracle"} {
			cells = append(cells, map[string]any{"workload": w, "design": d, "warmup_records": 500, "measure_records": 500})
			specs = append(specs, cellSpec{Workload: w, Design: d, WarmupRecords: 500, MeasureRecords: 500})
		}
	}
	n := int64(len(cells))

	before := getStats(t, ts.URL)
	sub := submitJob(t, ts.URL, cells)
	st := awaitJobState(t, ts.URL, sub.ID, "done")
	cold := getStats(t, ts.URL)
	for i, spec := range specs {
		cfg, err := spec.config(srv.base)
		if err != nil {
			t.Fatal(err)
		}
		want, err := shift.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Results[i]; got == nil || got.Key != cfg.Key() || got.Result != want {
			t.Errorf("cell %d (%s/%s): the job's result differs from shift.Run's", i, spec.Workload, spec.Design)
		}
	}
	if d := cold.Simulated - before.Simulated; d != n || cold.Batched-before.Batched != n ||
		cold.StoreMisses-before.StoreMisses != n || cold.StoreHits != before.StoreHits ||
		cold.StreamsShared-before.StreamsShared != n-2 {
		t.Errorf("cold job: simulated %d, batched %d, store misses %d, store hits %d, streams shared %d; want %d, %d, %d, 0, %d",
			d, cold.Batched-before.Batched, cold.StoreMisses-before.StoreMisses, cold.StoreHits-before.StoreHits,
			cold.StreamsShared-before.StreamsShared, n, n, n, n-2)
	}
	if cold.JobBatches-before.JobBatches != 2 || cold.JobBatchCells-before.JobBatchCells != n {
		t.Errorf("cold job: job_batches %d, job_batch_cells %d; want 2, %d",
			cold.JobBatches-before.JobBatches, cold.JobBatchCells-before.JobBatchCells, n)
	}

	again := submitJob(t, ts.URL, cells)
	hot := awaitJobState(t, ts.URL, again.ID, "done")
	after := getStats(t, ts.URL)
	if after.Simulated != cold.Simulated || after.StoreHits-cold.StoreHits != n || after.StoreMisses != cold.StoreMisses {
		t.Errorf("hot job: simulated %d, store hits %d, store misses %d; want 0, %d, 0",
			after.Simulated-cold.Simulated, after.StoreHits-cold.StoreHits, after.StoreMisses-cold.StoreMisses, n)
	}
	if !reflect.DeepEqual(hot.Results, st.Results) {
		t.Error("the replayed job's results differ from the cold job's")
	}
	metrics := getBody(t, ts.URL+"/v1/metrics", http.StatusOK)
	for _, want := range []string{"shiftd_job_batches_total 4", "shiftd_job_batch_cells_total 24"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics body missing %q", want)
		}
	}

	// One member panics in whatever batch holds it: the batch of six, then
	// the member alone. Its five batch-mates complete.
	srv.engine.SetExecutor(panicOn{"TIFS"})
	var six []map[string]any
	for _, d := range append(designs[:5:5], "TIFS") {
		six = append(six, map[string]any{"workload": "DSS Qry 2", "design": d, "warmup_records": 500, "measure_records": 500})
	}
	failed := awaitJobState(t, ts.URL, submitJob(t, ts.URL, six).ID, "failed")
	if failed.Completed != 5 || failed.Failed != 1 || !strings.Contains(failed.CellErrors[5], "panicked") {
		t.Errorf("job with a panicking member = %d completed, %d failed, errors %v; want 5, 1, cell 5 panicked",
			failed.Completed, failed.Failed, failed.CellErrors)
	}
}

// panicOn is an Executor that panics on any batch holding the named
// design and otherwise runs the batch in process.
type panicOn struct{ design string }

func (p panicOn) ExecBatch(cfgs []shift.Config) ([]shift.RunResult, error) {
	for _, cfg := range cfgs {
		if cfg.Design.String() == p.design {
			panic("test: member panic")
		}
	}
	return shift.RunBatch(cfgs)
}
