package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"shift"
	"shift/internal/cluster"
	"shift/internal/freelist"
	"shift/internal/jobs"
	"shift/internal/store"
)

// statsView is the part of GET /v1/stats these tests read.
type statsView struct {
	Requests          int64  `json:"requests"`
	StoreHits         int64  `json:"store_hits"`
	StoreMisses       int64  `json:"store_misses"`
	StoreCells        int    `json:"store_cells"`
	Simulated         int64  `json:"simulated"`
	Deduped           int64  `json:"deduped"`
	Inflight          int    `json:"inflight"`
	Batched           int64  `json:"batched"`
	StreamsShared     int64  `json:"streams_shared"`
	JobBatches        int64  `json:"job_batches"`
	JobBatchCells     int64  `json:"job_batch_cells"`
	SampledCells      int64  `json:"sampled_cells"`
	StoreErrors       int64  `json:"store_errors"`
	StoreQuarantined  int64  `json:"store_quarantined"`
	StoreBreakerState string `json:"store_breaker_state"`
	StoreBreakerTrips int64  `json:"store_breaker_trips"`
	StoreMemOnlyOps   int64  `json:"store_mem_only_ops"`
	JobsAdmitted      int64  `json:"jobs_admitted"`
	JobsRejected      int64  `json:"jobs_rejected"`
	Draining          bool   `json:"draining"`
	Journal           *struct {
		Records int `json:"records"`
	} `json:"journal"`
	Recovery *struct {
		JobsRecovered   int   `json:"jobs_recovered"`
		JobsTerminal    int   `json:"jobs_terminal"`
		CellsRestored   int   `json:"cells_restored"`
		CellsRequeued   int   `json:"cells_requeued"`
		TornTailRecords int   `json:"torn_tail_records"`
		TornTailBytes   int64 `json:"torn_tail_bytes"`
	} `json:"recovery"`
	Cluster *clusterView `json:"cluster"`
}

// clusterView is the part of GET /v1/cluster (and of the /v1/stats
// cluster object) these tests read.
type clusterView struct {
	Workers       []cluster.MemberStatus `json:"workers"`
	WorkersUp     int                    `json:"workers_up"`
	BatchesRouted int64                  `json:"batches_routed"`
	FallbackCells int64                  `json:"fallback_cells"`
}

// fullSnapshot has every block present and every fact non-zero, each
// at its own value, so every row renders and two rows reading one fact
// show.
func fullSnapshot() *snapshot {
	n := int64(0)
	next := func() int64 { n++; return n }
	i := func() int { return int(next()) }
	tables := freelist.Counts()
	for k := range tables {
		tables[k].Fresh, tables[k].Reused = next(), next()
	}
	return &snapshot{
		uptime:   12.5,
		requests: next(),
		engine: shift.EngineStats{
			StoreHits: next(), StoreMisses: next(), StoreCells: i(), Simulated: next(), Deduped: next(), Inflight: i(),
			Batched: next(), StreamsShared: next(), SampledCells: next(), Panicked: next(), TimedOut: next(), Capacity: i(),
		},
		jobs: jobs.Stats{
			QueueDepth: i(), Batches: next(), BatchCells: next(), Admitted: next(), Rejected: next(), Cancelled: next(),
			Retried: next(), Evicted: next(), Draining: true, Recovering: i(), JournalErrors: next(),
			Retained: i(), RetainedCells: i(), SharedResults: i(), LatencyCount: next(),
			LatencySum: 7.25, LatencyP50: 0.25, LatencyP90: 0.5, LatencyP99: 0.75,
		},
		journal:  jobs.JournalStats{Records: i(), Bytes: next(), Compactions: next()},
		recovery: jobs.RecoveryStats{JobsRecovered: i(), JobsTerminal: i(), CellsRestored: i(), CellsRequeued: i(), TailRecords: i(), TailBytes: next()},
		health: shift.StoreHealth{
			Errors: next(), Quarantined: next(), BreakerState: store.BreakerOpen, BreakerTrips: next(), MemOnlyOps: next(),
			Remote: true, RemoteErrors: next(),
		},
		cluster: cluster.Stats{
			WorkersUp: i(), WorkersSuspect: i(), WorkersDown: i(), BatchesRouted: next(), BatchesRerouted: next(),
			BatchesHedged: next(), CellsFallback: next(), DispatchErrors: next(),
		},
		gc:     gcStats{cycles: next(), liveBytes: next(), scanBytes: next()},
		tables: tables,
		blocks: journalBlock | healthBlock | remoteBlock | clusterBlock,
	}
}

// decodeStats round-trips a stats document through its wire form, so
// values carry the JSON types a client sees: float64 for every number,
// bool, string, and map[string]any for a block's object.
func decodeStats(t *testing.T, doc map[string]any) map[string]any {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// statsAt resolves a dotted row path in a decoded stats document.
func statsAt(doc map[string]any, path string) (any, bool) {
	object, key, nested := strings.Cut(path, ".")
	if !nested {
		v, ok := doc[path]
		return v, ok
	}
	sub, _ := doc[object].(map[string]any)
	v, ok := sub[key]
	return v, ok
}

// exposed is a parsed /v1/metrics body.
type exposed struct {
	samples map[string]float64 // by sample name, labels included
	types   map[string]string  // by family
	helps   map[string]string
}

func parseExposition(t *testing.T, body string) exposed {
	t.Helper()
	e := exposed{samples: map[string]float64{}, types: map[string]string{}, helps: map[string]string{}}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		f := strings.SplitN(line, " ", 4)
		switch {
		case strings.HasPrefix(line, "# TYPE ") && len(f) == 4:
			if _, dup := e.types[f[2]]; dup {
				t.Errorf("family %s has two TYPE lines", f[2])
			}
			e.types[f[2]] = f[3]
		case strings.HasPrefix(line, "# HELP ") && len(f) == 4:
			e.helps[f[2]] = f[3]
		case len(f) == 2:
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Errorf("sample line %q: %v", line, err)
			}
			if _, dup := e.samples[f[0]]; dup {
				t.Errorf("sample %s rendered twice", f[0])
			}
			e.samples[f[0]] = v
		default:
			t.Errorf("unparseable exposition line %q", line)
		}
	}
	return e
}

// TestCounterTable walks the rows: each one renders in /v1/stats at its
// path with the JSON type of its value and in /v1/metrics under its
// series with HELP, TYPE and the same value; names are unique and
// counters end in _total.
func TestCounterTable(t *testing.T) {
	sn := fullSnapshot()
	doc := decodeStats(t, sn.statsDoc())
	exp := parseExposition(t, sn.exposition())
	paths, names, readers := map[string]bool{}, map[string]bool{}, map[float64]string{}
	for _, r := range rows {
		name := r.series + r.suffix
		if paths[r.path] || names[name] {
			t.Errorf("row %s / %s: duplicate path or series", r.path, name)
		}
		paths[r.path], names[name] = true, true
		if r.help == "" || r.get == nil {
			t.Errorf("row %s: no help or no getter", r.path)
			continue
		}
		if (r.kind == counter) != strings.HasSuffix(r.series, "_total") || (r.kind == summary) != (r.suffix != "") {
			t.Errorf("row %s: series %s%s does not read as a %s", r.path, r.series, r.suffix, r.kind)
		}
		if exp.types[r.series] != r.kind || exp.helps[r.series] == "" {
			t.Errorf("series %s: TYPE %q HELP %q, want TYPE %s and a HELP line", r.series, exp.types[r.series], exp.helps[r.series], r.kind)
		}
		got, ok := statsAt(doc, r.path)
		sample, exposedOK := exp.samples[name]
		if !ok || !exposedOK {
			t.Errorf("row %s / %s: in stats %v, in metrics %v; want both", r.path, name, ok, exposedOK)
			continue
		}
		switch want := r.get(sn).(type) {
		case bool:
			if got != want || sample != 1 {
				t.Errorf("row %s: stats %v, metrics %g; want %v and 1", r.path, got, sample, want)
			}
		case string:
			if got != want || r.one != want || sample != 1 {
				t.Errorf("row %s: stats %v, metrics %g; want %q and 1", r.path, got, sample, want)
			}
		default:
			if f, isNum := got.(float64); !isNum || f == 0 || f != sample {
				t.Errorf("row %s: stats %v (%T), metrics %g; want one non-zero number", r.path, got, got, sample)
			} else if other, dup := readers[f]; dup {
				t.Errorf("rows %s and %s read the same fact (%g)", other, r.path, f)
			}
			readers[sample] = r.path
		}
	}
	if len(exp.samples) != len(rows) {
		t.Errorf("%d samples exposed for %d rows", len(exp.samples), len(rows))
	}

	// /v1/cluster: the membership plus the cluster block's keys, bare.
	coordTS, _ := newCoordinatorServer(t)
	var cl map[string]any
	if err := json.Unmarshal([]byte(getBody(t, coordTS.URL+"/v1/cluster", http.StatusOK)), &cl); err != nil {
		t.Fatal(err)
	}
	want := []string{"workers", "workers_up", "workers_suspect", "workers_down", "batches_routed",
		"batches_rerouted", "batches_hedged", "fallback_cells", "dispatch_errors"}
	for _, key := range want {
		if _, ok := cl[key]; !ok {
			t.Errorf("/v1/cluster lacks %q", key)
		}
	}
	if len(cl) != len(want) {
		t.Errorf("/v1/cluster = %v, want exactly %v", cl, want)
	}
}

// TestCounterTableLive serves the table from a process that has every
// block — a journal, a coordinator, a health-reporting remote-backed
// store — and from one that has none: the handlers render every row in
// the first, and in the second the journal, recovery, cluster and
// remote rows are absent from both views.
func TestCounterTableLive(t *testing.T) {
	hs := &healthStore{ResultStore: shift.NewResultCache(), health: fullSnapshot().health}
	engine := shift.NewEngine(0, hs)
	jm, _ := openDurable(t, t.TempDir(), hs, jobs.Config{RunBatch: engine.RunKeyed})
	t.Cleanup(jm.Close)
	srv := newServer(engine, hs, testOpts(), jm, 1<<20)
	coord := cluster.New(cluster.Config{})
	t.Cleanup(coord.Close)
	srv.cluster = coord
	full := httptest.NewServer(srv.handler())
	t.Cleanup(full.Close)
	bare, _ := newTestServer(t)

	for _, tc := range []struct {
		name    string
		url     string
		present block
	}{
		{"every block", full.URL, journalBlock | healthBlock | remoteBlock | clusterBlock},
		{"no block", bare.URL, 0},
	} {
		var doc map[string]any
		if err := json.Unmarshal([]byte(getBody(t, tc.url+"/v1/stats", http.StatusOK)), &doc); err != nil {
			t.Fatal(err)
		}
		exp := parseExposition(t, getBody(t, tc.url+"/v1/metrics", http.StatusOK))
		for _, r := range rows {
			has := tc.present&r.in == r.in
			_, inStats := statsAt(doc, r.path)
			_, inMetrics := exp.samples[r.series+r.suffix]
			// /v1/stats keeps a top-level key whatever its block (the health
			// keys predate the rule) and drops an omitZero key at zero: a
			// live process is neither draining nor recovering, while the
			// fixture's breaker state and remote error count are non-zero.
			wantStats := has || !strings.Contains(r.path, ".")
			if r.omitZero {
				wantStats = has && r.in != 0
			}
			if inStats != wantStats || inMetrics != has {
				t.Errorf("%s: row %s in stats %v (want %v), %s in metrics %v (want %v)",
					tc.name, r.path, inStats, wantStats, r.series, inMetrics, has)
			}
		}
		for _, object := range []string{"journal", "recovery", "cluster"} {
			if _, ok := doc[object]; ok != (tc.present != 0) {
				t.Errorf("%s: stats object %q present = %v", tc.name, object, ok)
			}
		}
	}
}

// The compatibility surface: the /v1/stats keys and /v1/metrics series
// of the commit before the counter table, captured from that commit's
// statsResponse struct tags and metric(...) calls — not from the table.
// jsonType is "number", "bool", "string" or "object"; a key is rendered always,
// only when non-zero (omitempty), or only with its block's object.
var pinnedStats = []struct{ path, jsonType, when string }{
	{"uptime_seconds", "number", "always"}, {"requests", "number", "always"},
	{"store_hits", "number", "always"}, {"store_misses", "number", "always"}, {"store_cells", "number", "always"},
	{"simulated", "number", "always"}, {"deduped", "number", "always"}, {"inflight", "number", "always"},
	{"batched", "number", "always"}, {"streams_shared", "number", "always"},
	{"job_batches", "number", "always"}, {"job_batch_cells", "number", "always"},
	{"sampled_cells", "number", "always"}, {"cells_panicked", "number", "always"}, {"cells_timed_out", "number", "always"},
	{"store_errors", "number", "always"}, {"store_quarantined", "number", "always"},
	{"store_breaker_state", "string", "omitempty"},
	{"store_breaker_trips", "number", "always"}, {"store_mem_only_ops", "number", "always"},
	{"queue_depth", "number", "always"},
	{"jobs_admitted", "number", "always"}, {"jobs_rejected", "number", "always"}, {"jobs_cancelled", "number", "always"},
	{"job_cells_retried", "number", "always"},
	{"job_latency_p50_seconds", "number", "always"}, {"job_latency_p90_seconds", "number", "always"},
	{"job_latency_p99_seconds", "number", "always"},
	{"draining", "bool", "omitempty"}, {"jobs_recovering", "number", "omitempty"},
	{"journal", "object", "block"}, {"recovery", "object", "block"},
	{"remote_store_errors", "number", "omitempty"},
	{"cluster", "object", "block"},
	{"journal.records", "number", "block"}, {"journal.bytes", "number", "block"},
	{"journal.compactions", "number", "block"}, {"journal.errors", "number", "block"},
	{"recovery.jobs_recovered", "number", "block"}, {"recovery.jobs_terminal", "number", "block"},
	{"recovery.cells_restored", "number", "block"}, {"recovery.cells_requeued", "number", "block"},
	{"recovery.torn_tail_records", "number", "block"}, {"recovery.torn_tail_bytes", "number", "block"},
	{"cluster.workers_up", "number", "block"}, {"cluster.workers_suspect", "number", "block"},
	{"cluster.workers_down", "number", "block"}, {"cluster.batches_routed", "number", "block"},
	{"cluster.batches_rerouted", "number", "block"}, {"cluster.batches_hedged", "number", "block"},
	{"cluster.fallback_cells", "number", "block"}, {"cluster.dispatch_errors", "number", "block"},
}

var pinnedSeries = []struct{ family, kind string }{
	{"shiftd_uptime_seconds", "gauge"}, {"shiftd_requests_total", "counter"},
	{"shiftd_jobs_queue_depth", "gauge"}, {"shiftd_jobs_admitted_total", "counter"},
	{"shiftd_jobs_rejected_total", "counter"}, {"shiftd_jobs_cancelled_total", "counter"},
	{"shiftd_store_hits_total", "counter"}, {"shiftd_store_misses_total", "counter"}, {"shiftd_store_cells", "gauge"},
	{"shiftd_cells_simulated_total", "counter"}, {"shiftd_cells_deduped_total", "counter"},
	{"shiftd_cells_inflight", "gauge"}, {"shiftd_cells_batched_total", "counter"},
	{"shiftd_streams_shared_total", "counter"}, {"shiftd_job_batches_total", "counter"},
	{"shiftd_job_batch_cells_total", "counter"}, {"shiftd_cells_sampled_total", "counter"},
	{"shiftd_cells_panicked_total", "counter"}, {"shiftd_cells_timed_out_total", "counter"},
	{"shiftd_job_cells_retried_total", "counter"}, {"shiftd_draining", "gauge"}, {"shiftd_jobs_recovering", "gauge"},
	{"shiftd_journal_records", "gauge"}, {"shiftd_journal_bytes", "gauge"},
	{"shiftd_journal_compactions_total", "counter"}, {"shiftd_journal_errors_total", "counter"},
	{"shiftd_recovery_jobs_recovered", "gauge"}, {"shiftd_recovery_jobs_terminal", "gauge"},
	{"shiftd_recovery_cells_restored", "gauge"}, {"shiftd_recovery_cells_requeued", "gauge"},
	{"shiftd_recovery_torn_tail_records", "gauge"},
	{"shift_store_errors_total", "counter"}, {"shiftd_store_quarantined", "gauge"},
	{"shiftd_store_breaker_open", "gauge"}, {"shiftd_store_breaker_trips_total", "counter"},
	{"shiftd_store_mem_only_total", "counter"}, {"shiftd_remote_store_errors_total", "counter"},
	{"shiftd_cluster_workers_up", "gauge"}, {"shiftd_cluster_workers_suspect", "gauge"},
	{"shiftd_cluster_workers_down", "gauge"}, {"shiftd_cluster_batches_routed_total", "counter"},
	{"shiftd_cluster_batches_rerouted_total", "counter"}, {"shiftd_cluster_batches_hedged_total", "counter"},
	{"shiftd_cluster_fallback_cells_total", "counter"}, {"shiftd_cluster_dispatch_errors_total", "counter"},
}

// TestStatsAndMetricsCompatibility holds the table to the pinned
// names: all 52 /v1/stats keys with their JSON types and presence
// rules, all 45 plain series and the latency summary (three quantiles,
// _sum, _count) with their TYPEs.
func TestStatsAndMetricsCompatibility(t *testing.T) {
	if len(pinnedStats) != 52 || len(pinnedSeries) != 45 {
		t.Fatalf("pinned lists hold %d keys and %d series, want 52 and 45", len(pinnedStats), len(pinnedSeries))
	}
	full := decodeStats(t, fullSnapshot().statsDoc())
	zero := decodeStats(t, new(snapshot).statsDoc())
	for _, p := range pinnedStats {
		v, ok := statsAt(full, p.path)
		jsonType := map[reflect.Kind]string{
			reflect.Float64: "number", reflect.Bool: "bool", reflect.String: "string", reflect.Map: "object",
		}[reflect.ValueOf(v).Kind()]
		if !ok || jsonType != p.jsonType {
			t.Errorf("stats key %s: present %v as %q, want a %s", p.path, ok, jsonType, p.jsonType)
		}
		if _, ok := statsAt(zero, p.path); ok != (p.when == "always") {
			t.Errorf("stats key %s (%s) at zero with no block: present = %v", p.path, p.when, ok)
		}
	}
	exp := parseExposition(t, fullSnapshot().exposition())
	for _, p := range pinnedSeries {
		if _, ok := exp.samples[p.family]; !ok || exp.types[p.family] != p.kind {
			t.Errorf("series %s: sample present %v, TYPE %q, want %s", p.family, ok, exp.types[p.family], p.kind)
		}
	}
	if exp.types["shiftd_job_latency_seconds"] != "summary" {
		t.Errorf("shiftd_job_latency_seconds TYPE = %q, want summary", exp.types["shiftd_job_latency_seconds"])
	}
	for _, name := range []string{`{quantile="0.5"}`, `{quantile="0.9"}`, `{quantile="0.99"}`, "_sum", "_count"} {
		if _, ok := exp.samples["shiftd_job_latency_seconds"+name]; !ok {
			t.Errorf("latency summary lacks shiftd_job_latency_seconds%s", name)
		}
	}
}

// TestReadyzAnswersWhileRemoteStoreStalls: with -store-url, the blob
// peer hung and the breaker tripped, the readiness probe — the thing
// that reports that degradation — answers at once and does no backend
// I/O of its own: ten polls, each a 503 in under 200 ms, and the store's
// error counters stand still.
func TestReadyzAnswersWhileRemoteStoreStalls(t *testing.T) {
	const healthy, failing, hung = 0, 1, 2
	var mode atomic.Int32
	release := make(chan struct{})
	blobs := http.StripPrefix("/v1/blobs", store.NewBlobHandler(store.NewMem()))
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode.Load() {
		case failing:
			http.Error(w, "injected", http.StatusInternalServerError)
		case hung:
			select {
			case <-release:
			case <-r.Context().Done():
			}
		default:
			blobs.ServeHTTP(w, r)
		}
	}))
	t.Cleanup(peer.Close)
	t.Cleanup(func() { close(release) })

	rs := shift.NewTieredRemoteStore(peer.URL+"/v1/blobs", &http.Client{Timeout: 2 * time.Second})
	engine := shift.NewEngine(0, rs)
	jm := jobs.New(jobs.Config{RunBatch: engine.RunKeyed})
	t.Cleanup(jm.Close)
	ts := httptest.NewServer(newServer(engine, rs, testOpts(), jm, 1<<20).handler())
	t.Cleanup(ts.Close)

	mode.Store(failing)
	for i := 0; i < 8; i++ {
		rs.Lookup(fmt.Sprintf("%08x", i))
	}
	if got := rs.Health().BreakerState; got != store.BreakerOpen {
		t.Fatalf("breaker = %q after eight failed lookups, want open", got)
	}
	mode.Store(hung)
	before := rs.Health() // counter reads, no I/O
	if before.Errors == 0 {
		t.Fatalf("store health before polling = %+v, want store errors", before)
	}
	for i := 0; i < 10; i++ {
		start := time.Now()
		code, body := getReadyz(t, ts.URL)
		if took := time.Since(start); code != http.StatusServiceUnavailable || body.Status != "degraded" || took > 200*time.Millisecond {
			t.Fatalf("poll %d: readyz = %d %q in %s, want 503 degraded in under 200ms", i, code, body.Status, took)
		}
	}
	// A scrape counts the store; off a closed breaker that is the last
	// known count, whether or not the cooldown has run out.
	if st := getStats(t, ts.URL); st.StoreBreakerState != store.BreakerOpen {
		t.Errorf("store_breaker_state = %q after a scrape, want open: only a lookup or store may probe", st.StoreBreakerState)
	}
	after := rs.Health()
	if after.Errors != before.Errors || !after.Remote || after.RemoteErrors == 0 {
		t.Errorf("store health after ten polls = %+v, want errors still %d on a remote tier", after, before.Errors)
	}
}
