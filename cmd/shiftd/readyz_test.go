package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"shift"
	"shift/internal/cluster"
	"shift/internal/jobs"
	"shift/internal/store"
)

// healthStore wraps the in-memory cache with a canned StoreHealth, so
// readiness tests can dial in exact degradation states without breaking
// a real disk.
type healthStore struct {
	shift.ResultStore
	health shift.StoreHealth
}

func (s *healthStore) Health() shift.StoreHealth { return s.health }

// newHealthTestServer is newTestServer with a health-reporting store.
func newHealthTestServer(t *testing.T, health shift.StoreHealth) (*httptest.Server, *healthStore) {
	t.Helper()
	hs := &healthStore{ResultStore: shift.NewResultCache(), health: health}
	engine := shift.NewEngine(0, hs)
	jm := jobs.New(jobs.Config{RunBatch: engine.RunKeyed})
	t.Cleanup(jm.Close)
	srv := newServer(engine, hs, testOpts(), jm, 1<<20)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, hs
}

func getReadyz(t *testing.T, url string) (int, readyzResponse) {
	t.Helper()
	resp, err := http.Get(url + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body readyzResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestReadyzReady(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := getReadyz(t, ts.URL)
	if code != http.StatusOK || body.Status != "ready" || len(body.Reasons) != 0 {
		t.Errorf("readyz = %d %+v, want 200 ready", code, body)
	}
}

func TestReadyzDegradedByStore(t *testing.T) {
	ts, hs := newHealthTestServer(t, shift.StoreHealth{
		BreakerState: store.BreakerOpen,
		BreakerTrips: 3,
		Quarantined:  2,
	})
	code, body := getReadyz(t, ts.URL)
	if code != http.StatusServiceUnavailable || body.Status != "degraded" {
		t.Fatalf("readyz = %d %+v, want 503 degraded", code, body)
	}
	if len(body.Reasons) != 2 {
		t.Fatalf("reasons = %v, want breaker + quarantine", body.Reasons)
	}
	if !strings.Contains(body.Reasons[0], "breaker open") || !strings.Contains(body.Reasons[1], "quarantined") {
		t.Errorf("reasons = %v", body.Reasons)
	}

	// Recovery flips it back to ready.
	hs.health = shift.StoreHealth{BreakerState: store.BreakerClosed}
	if code, body := getReadyz(t, ts.URL); code != http.StatusOK || body.Status != "ready" {
		t.Errorf("after recovery readyz = %d %+v, want 200 ready", code, body)
	}
}

// TestDegradedReasons drives the pure readiness rules across every
// condition, including the saturation rule that needs live engine
// shapes newHealthTestServer cannot pin down.
func TestDegradedReasons(t *testing.T) {
	for _, tt := range []struct {
		name      string
		es        shift.EngineStats
		js        jobs.Stats
		health    shift.StoreHealth
		hasHealth bool
		workers   []cluster.MemberStatus
		want      int
		contains  string
	}{
		{name: "all healthy", hasHealth: true, health: shift.StoreHealth{BreakerState: store.BreakerClosed}},
		{name: "no health reporter, idle"},
		{
			name:      "breaker half-open",
			hasHealth: true,
			health:    shift.StoreHealth{BreakerState: store.BreakerHalfOpen, BreakerTrips: 1},
			want:      1, contains: "half-open",
		},
		{
			name:      "quarantine only",
			hasHealth: true,
			health:    shift.StoreHealth{BreakerState: store.BreakerClosed, Quarantined: 5},
			want:      1, contains: "5 corrupt",
		},
		{
			name: "saturated with queued work",
			es:   shift.EngineStats{Inflight: 4, Capacity: 4},
			js:   jobs.Stats{QueueDepth: 7},
			want: 1, contains: "saturated",
		},
		{
			name: "saturated but nothing queued",
			es:   shift.EngineStats{Inflight: 4, Capacity: 4},
		},
		{
			name: "queued but slots free",
			es:   shift.EngineStats{Inflight: 2, Capacity: 4},
			js:   jobs.Stats{QueueDepth: 7},
		},
		{
			name: "all cluster workers up",
			workers: []cluster.MemberStatus{
				{Addr: "http://w1:8080", State: "up"},
				{Addr: "http://w2:8080", State: "up"},
			},
		},
		{
			name: "one worker suspect",
			workers: []cluster.MemberStatus{
				{Addr: "http://w1:8080", State: "up"},
				{Addr: "http://w2:8080", State: "suspect", Fails: 1, LastErr: "connection refused"},
			},
			want: 1, contains: "connection refused",
		},
		{
			name: "all workers down",
			workers: []cluster.MemberStatus{
				{Addr: "http://w1:8080", State: "down", Fails: 5},
			},
			want: 2, contains: "cluster worker http://w1:8080 down",
		},
	} {
		t.Run(tt.name, func(t *testing.T) {
			sn := &snapshot{engine: tt.es, jobs: tt.js, health: tt.health, workers: tt.workers}
			if tt.hasHealth {
				sn.blocks |= healthBlock
			}
			got := degradedReasons(sn)
			if len(got) != tt.want {
				t.Fatalf("degradedReasons = %v, want %d reasons", got, tt.want)
			}
			if tt.contains != "" && !strings.Contains(got[0], tt.contains) {
				t.Errorf("reason %q does not mention %q", got[0], tt.contains)
			}
		})
	}
}

func TestStatsCarriesResilienceCounters(t *testing.T) {
	ts, _ := newHealthTestServer(t, shift.StoreHealth{
		Errors:       4,
		Quarantined:  1,
		BreakerState: store.BreakerOpen,
		BreakerTrips: 2,
		MemOnlyOps:   9,
	})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsView
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.StoreErrors != 4 || st.StoreQuarantined != 1 || st.StoreBreakerState != store.BreakerOpen ||
		st.StoreBreakerTrips != 2 || st.StoreMemOnlyOps != 9 {
		t.Errorf("stats resilience counters = %+v", st)
	}
}

func TestMetricsCarryResilienceCounters(t *testing.T) {
	ts, _ := newHealthTestServer(t, shift.StoreHealth{
		Errors:       4,
		BreakerState: store.BreakerOpen,
	})
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"shift_store_errors_total 4",
		"shiftd_store_breaker_open 1",
		"shiftd_cells_panicked_total 0",
		"shiftd_cells_timed_out_total 0",
		"shiftd_job_cells_retried_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
