package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shift"
	"shift/internal/cluster"
	"shift/internal/jobs"
	"shift/internal/store"
)

// newWorkerServer stands up a full shiftd handler in worker mode: the
// batch route on a fresh engine and the raw blob tier exported, as
// main() wires them under -worker.
func newWorkerServer(t *testing.T) (*httptest.Server, *server) {
	t.Helper()
	rs := shift.NewTieredStoreOver(store.NewMem())
	engine := shift.NewEngine(0, rs)
	jm := jobs.New(jobs.Config{RunBatch: engine.RunKeyed})
	t.Cleanup(jm.Close)
	srv := newServer(engine, rs, testOpts(), jm, 1<<20)
	srv.worker = cluster.NewWorker(engine)
	srv.blobs = store.NewBlobHandler(rs.BlobTier())
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// newCoordinatorServer stands up a shiftd handler coordinating the
// given worker URLs, as main() wires them under -peers. The cluster
// routes only register when the coordinator is set before the handler
// is built, exactly as in main.
func newCoordinatorServer(t *testing.T, peers ...string) (*httptest.Server, *server) {
	t.Helper()
	rs := shift.NewResultCache()
	engine := shift.NewEngine(0, rs)
	jm := jobs.New(jobs.Config{RunBatch: engine.RunKeyed})
	t.Cleanup(jm.Close)
	srv := newServer(engine, rs, testOpts(), jm, 1<<20)
	coord := cluster.New(cluster.Config{Peers: peers})
	t.Cleanup(coord.Close)
	engine.SetExecutor(coord)
	srv.cluster = coord
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func TestClusterRoutesAbsentByDefault(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v1/cluster"},
		{http.MethodPost, "/v1/batch"},
		{http.MethodGet, "/v1/blobs"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404 on a non-cluster server", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// TestCoordinatorShardsGridAcrossWorker runs a grid through a full
// coordinator shiftd against a full worker shiftd and checks the
// result matches in-process execution, the cluster counters move, and
// /v1/cluster reports the worker healthy.
func TestCoordinatorShardsGridAcrossWorker(t *testing.T) {
	workerTS, workerSrv := newWorkerServer(t)
	coordTS, _ := newCoordinatorServer(t, workerTS.URL)

	grid := gridRequest{Cells: []cellSpec{
		{Workload: "Web Search", Design: "SHIFT"},
		{Workload: "Web Search", Design: "Baseline"},
	}}
	var got gridResponse
	if code := postJSON(t, coordTS.URL+"/v1/grid", grid, &got); code != http.StatusOK {
		t.Fatalf("grid via coordinator = %d, want 200", code)
	}
	if len(got.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(got.Results))
	}

	// The same cells in-process must produce identical results.
	ref, _ := newTestServer(t)
	var want gridResponse
	if code := postJSON(t, ref.URL+"/v1/grid", grid, &want); code != http.StatusOK {
		t.Fatalf("grid in-process = %d, want 200", code)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatal("clustered grid differs from in-process grid")
	}

	if n := workerSrv.engine.Stats().Simulated; n == 0 {
		t.Error("worker simulated no cells; grid was not routed")
	}
	resp, err := http.Get(coordTS.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cl clusterView
	if err := json.NewDecoder(resp.Body).Decode(&cl); err != nil {
		t.Fatal(err)
	}
	if cl.WorkersUp != 1 || cl.BatchesRouted == 0 || cl.FallbackCells != 0 {
		t.Errorf("cluster view = %+v, want 1 worker up, routed batches, no fallback", cl)
	}
}

func TestClusterJoinGrowsMembership(t *testing.T) {
	ts, srv := newCoordinatorServer(t)
	var out struct {
		Workers []cluster.MemberStatus `json:"workers"`
	}
	if code := postJSON(t, ts.URL+"/v1/cluster/join", joinRequest{Addr: "http://w9:8080"}, &out); code != http.StatusOK {
		t.Fatalf("join = %d, want 200", code)
	}
	if len(out.Workers) != 1 || out.Workers[0].Addr != "http://w9:8080" {
		t.Errorf("membership after join = %+v", out.Workers)
	}
	if len(srv.cluster.Members()) != 1 {
		t.Error("coordinator did not record the joined worker")
	}
	var errOut map[string]string
	if code := postJSON(t, ts.URL+"/v1/cluster/join", joinRequest{}, &errOut); code != http.StatusBadRequest {
		t.Errorf("join without addr = %d, want 400", code)
	}
}

// TestBlobRoutesServeRawTier checks the worker's /v1/blobs routes: a
// simulated cell's blob is served raw (CRC footer intact), the count
// route reports it, and malformed keys answer 400.
func TestBlobRoutesServeRawTier(t *testing.T) {
	ts, _ := newWorkerServer(t)
	var run runResponse
	cell := cellSpec{Workload: "Web Search", Design: "SHIFT"}
	if code := postJSON(t, ts.URL+"/v1/run", cell, &run); code != http.StatusOK {
		t.Fatalf("run = %d, want 200", code)
	}
	resp, err := http.Get(ts.URL + "/v1/blobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var count struct {
		Len int `json:"len"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&count); err != nil {
		t.Fatal(err)
	}
	if count.Len == 0 {
		t.Fatal("blob count = 0 after a simulated cell")
	}
	blobResp, err := http.Get(ts.URL + "/v1/blobs/" + run.Key)
	if err != nil {
		t.Fatal(err)
	}
	blobResp.Body.Close()
	if blobResp.StatusCode != http.StatusOK {
		t.Errorf("GET blob %s = %d, want 200", run.Key, blobResp.StatusCode)
	}
	badResp, err := http.Get(ts.URL + "/v1/blobs/not-hex!")
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET malformed blob key = %d, want 400", badResp.StatusCode)
	}
}

// TestStatsAndMetricsCarryClusterCounters checks satellite
// observability: /v1/stats grows a cluster block and /v1/metrics the
// shiftd_cluster_* family when coordinating.
func TestStatsAndMetricsCarryClusterCounters(t *testing.T) {
	workerTS, _ := newWorkerServer(t)
	coordTS, _ := newCoordinatorServer(t, workerTS.URL)
	grid := gridRequest{Cells: []cellSpec{{Workload: "Web Search", Design: "SHIFT"}}}
	var got gridResponse
	if code := postJSON(t, coordTS.URL+"/v1/grid", grid, &got); code != http.StatusOK {
		t.Fatalf("grid = %d, want 200", code)
	}

	resp, err := http.Get(coordTS.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsView
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil || st.Cluster.BatchesRouted == 0 || st.Cluster.WorkersUp != 1 {
		t.Errorf("stats cluster block = %+v, want routed batches and 1 worker up", st.Cluster)
	}

	mResp, err := http.Get(coordTS.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mResp.Body.Close()
	raw, err := io.ReadAll(mResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"shiftd_cluster_workers_up 1",
		"shiftd_cluster_batches_routed_total",
		"shiftd_cluster_dispatch_errors_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestReadyzReportsDownWorkers checks that a coordinator whose only
// worker is unreachable degrades readiness with per-worker reasons.
func TestReadyzReportsDownWorkers(t *testing.T) {
	ts, srv := newCoordinatorServer(t, "http://127.0.0.1:1")
	// Drive the health probe to the down state deterministically.
	for i := 0; i < 3; i++ {
		srv.cluster.Probe()
	}
	code, body := getReadyz(t, ts.URL)
	if code != http.StatusServiceUnavailable || body.Status != "degraded" {
		t.Fatalf("readyz = %d %+v, want 503 degraded", code, body)
	}
	joined := strings.Join(body.Reasons, "\n")
	if !strings.Contains(joined, "cluster worker") || !strings.Contains(joined, "all 1 cluster workers down") {
		t.Errorf("reasons = %v, want per-worker and all-down lines", body.Reasons)
	}
}

// TestJobStreamHeartbeat checks satellite 2: an idle stream emits
// "heartbeat" events between cells, and the final event is still "end".
func TestJobStreamHeartbeat(t *testing.T) {
	rs := shift.NewResultCache()
	engine := shift.NewEngine(0, rs)
	slow := func(cfg shift.Config) (shift.RunResult, error) {
		time.Sleep(150 * time.Millisecond)
		return engine.RunOne(cfg)
	}
	jm := jobs.New(jobs.Config{Run: slow})
	t.Cleanup(jm.Close)
	srv := newServer(engine, rs, testOpts(), jm, 1<<20)
	srv.streamHeartbeat = 20 * time.Millisecond
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	grid := gridRequest{Cells: []cellSpec{{Workload: "Web Search", Design: "SHIFT"}}}
	body, err := json.Marshal(grid)
	if err != nil {
		t.Fatal(err)
	}
	subResp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer subResp.Body.Close()
	if subResp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", subResp.StatusCode)
	}
	var sub jobSubmitResponse
	if err := json.NewDecoder(subResp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + sub.StreamURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev jobStreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	beats, cells := 0, 0
	for _, typ := range types {
		switch typ {
		case "heartbeat":
			beats++
		case "cell":
			cells++
		}
	}
	if beats == 0 {
		t.Errorf("stream events %v carried no heartbeat during a %s-long cell", types, 150*time.Millisecond)
	}
	if cells != 1 || types[len(types)-1] != "end" {
		t.Errorf("stream events = %v, want one cell and a final end", types)
	}
}
