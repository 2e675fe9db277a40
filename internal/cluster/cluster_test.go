package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"shift"
)

// tinyOptions is a fast two-workload sweep: two distinct stream keys,
// so the grid genuinely shards across workers.
func tinyOptions(eng *shift.Engine) shift.Options {
	return shift.Options{
		Workloads:      []string{"OLTP Oracle", "Web Search"},
		Cores:          8,
		WarmupRecords:  6000,
		MeasureRecords: 6000,
		Seed:           1,
		Engine:         eng,
	}
}

// quadOptions widens tinyOptions to four workloads — four distinct
// stream-key batches, enough for chaos scenarios to guarantee the
// victims actually receive traffic.
func quadOptions(eng *shift.Engine) shift.Options {
	o := tinyOptions(eng)
	o.Workloads = []string{"OLTP DB2", "OLTP Oracle", "Web Frontend", "Web Search"}
	return o
}

// figureBytes renders a figure to canonical JSON for byte-identity
// comparison.
func figureBytes(t *testing.T, fig *shift.Figure7) []byte {
	t.Helper()
	b, err := json.Marshal(fig)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// singleHostFigure7 is the golden reference: the plain in-process
// engine.
func singleHostFigure7(t *testing.T) []byte {
	t.Helper()
	fig, err := shift.RunFigure7(tinyOptions(shift.NewEngine(2, shift.NewResultCache())))
	if err != nil {
		t.Fatal(err)
	}
	return figureBytes(t, fig)
}

// newCoordinatorEngine builds a coordinator over peers and an engine
// routing through it.
func newCoordinatorEngine(t *testing.T, cfg Config) (*Coordinator, *shift.Engine) {
	t.Helper()
	coord := New(cfg)
	t.Cleanup(coord.Close)
	eng := shift.NewEngine(4, shift.NewResultCache())
	eng.SetExecutor(coord)
	return coord, eng
}

// TestGoldenFigure7CrossWorker is the acceptance test: a Figure-7
// sweep sharded across two in-process workers is byte-identical to the
// single-host engine, under both affinity and round-robin routing
// (round-robin guarantees both workers receive work regardless of how
// rendezvous hashing maps this run's ephemeral ports).
func TestGoldenFigure7CrossWorker(t *testing.T) {
	want := singleHostFigure7(t)
	for _, route := range []struct {
		name   string
		router Router
	}{{"affinity", nil}, {"round-robin", &RoundRobinRouter{}}} {
		t.Run(route.name, func(t *testing.T) {
			srv1, w1, _ := newTestWorker(t)
			srv2, w2, _ := newTestWorker(t)
			coord, eng := newCoordinatorEngine(t, Config{
				Peers:  []string{srv1.URL, srv2.URL},
				Router: route.router,
			})
			fig, err := shift.RunFigure7(tinyOptions(eng))
			if err != nil {
				t.Fatal(err)
			}
			if got := figureBytes(t, fig); string(got) != string(want) {
				t.Fatalf("clustered figure differs from single-host:\n cluster %s\n single  %s", got, want)
			}
			st := coord.Stats()
			if st.BatchesRouted == 0 {
				t.Fatal("no batches were routed to workers")
			}
			if st.CellsFallback != 0 {
				t.Fatalf("%d cells fell back in-process with healthy workers", st.CellsFallback)
			}
			if w1.cells.Load()+w2.cells.Load() == 0 {
				t.Fatal("workers executed no cells")
			}
			if route.router != nil && (w1.Batches() == 0 || w2.Batches() == 0) {
				t.Fatalf("round-robin left a worker idle: %d / %d batches", w1.Batches(), w2.Batches())
			}
		})
	}
}

// chaosRule scripts one worker's failure mode in the chaos transport.
type chaosRule struct {
	// killAfter fails every request once the worker has served this
	// many (-1 = never).
	killAfter int
	served    int
	// stall blocks requests until their context expires.
	stall bool
	// partitioned fails every request immediately.
	partitioned bool
}

// chaosTransport injects seeded worker kills, stalls, and partitions
// into the coordinator's HTTP client, keyed by worker host.
type chaosTransport struct {
	inner http.RoundTripper
	mu    sync.Mutex
	rules map[string]*chaosRule
}

func newChaosTransport() *chaosTransport {
	return &chaosTransport{inner: http.DefaultTransport, rules: map[string]*chaosRule{}}
}

// set installs a rule for the worker at base URL u.
func (c *chaosTransport) set(t *testing.T, u string, r *chaosRule) {
	t.Helper()
	parsed, err := url.Parse(u)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.rules[parsed.Host] = r
	c.mu.Unlock()
}

func (c *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	r := c.rules[req.URL.Host]
	if r != nil {
		if r.partitioned {
			c.mu.Unlock()
			return nil, fmt.Errorf("chaos: %s partitioned", req.URL.Host)
		}
		if r.stall {
			c.mu.Unlock()
			<-req.Context().Done()
			return nil, req.Context().Err()
		}
		if r.killAfter >= 0 && r.served >= r.killAfter {
			c.mu.Unlock()
			return nil, fmt.Errorf("chaos: %s killed", req.URL.Host)
		}
		r.served++
	}
	c.mu.Unlock()
	return c.inner.RoundTrip(req)
}

// TestClusterChaosKillAndPartition is the cluster chaos suite's core:
// across seeded scenarios, one worker is killed mid-sweep (it serves
// one batch, then drops off) and another is partitioned from the
// start; the surviving workers absorb the re-routed batches and the
// figure stays byte-identical to single-host. Whether a victim is
// even routed to depends on how rendezvous hashing maps this run's
// ephemeral ports, so the failover-exercised assertion aggregates
// across all seeds instead of binding to each.
func TestClusterChaosKillAndPartition(t *testing.T) {
	ref, err := shift.RunFigure7(quadOptions(shift.NewEngine(2, shift.NewResultCache())))
	if err != nil {
		t.Fatal(err)
	}
	want := figureBytes(t, ref)
	var totalDispatchErrors int64
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			srvs := make([]*httptest.Server, 3)
			for i := range srvs {
				srvs[i], _, _ = newTestWorker(t)
			}
			chaos := newChaosTransport()
			rng := rand.New(rand.NewSource(seed))
			victims := rng.Perm(3)
			chaos.set(t, srvs[victims[0]].URL, &chaosRule{killAfter: 1})
			chaos.set(t, srvs[victims[1]].URL, &chaosRule{partitioned: true, killAfter: -1})

			coord, eng := newCoordinatorEngine(t, Config{
				Peers:  []string{srvs[0].URL, srvs[1].URL, srvs[2].URL},
				Client: &http.Client{Transport: chaos},
			})
			fig, err := shift.RunFigure7(quadOptions(eng))
			if err != nil {
				t.Fatal(err)
			}
			if got := figureBytes(t, fig); string(got) != string(want) {
				t.Fatalf("figure under chaos differs from single-host:\n chaos  %s\n single %s", got, want)
			}
			st := coord.Stats()
			totalDispatchErrors += st.DispatchErrors
			t.Logf("seed %d: routed=%d rerouted=%d fallback=%d dispatch_errors=%d",
				seed, st.BatchesRouted, st.BatchesRerouted, st.CellsFallback, st.DispatchErrors)
		})
	}
	if totalDispatchErrors == 0 {
		t.Fatal("no chaos scenario injected a dispatch error — failover never exercised")
	}
}

// TestClusterRerouteMidSweep pins re-routing specifically: two
// workers, one dies right after serving its first batch, every later
// batch routed its way must re-route to the survivor — and the output
// stays byte-identical. Four workloads give four stream-key batches,
// so round-robin sends the doomed worker at least two.
func TestClusterRerouteMidSweep(t *testing.T) {
	ref, err := shift.RunFigure7(quadOptions(shift.NewEngine(2, shift.NewResultCache())))
	if err != nil {
		t.Fatal(err)
	}
	want := figureBytes(t, ref)

	srv1, _, _ := newTestWorker(t)
	srv2, _, _ := newTestWorker(t)
	chaos := newChaosTransport()
	chaos.set(t, srv1.URL, &chaosRule{killAfter: 1})
	coord, eng := newCoordinatorEngine(t, Config{
		Peers:  []string{srv1.URL, srv2.URL},
		Router: &RoundRobinRouter{}, // guarantees srv1 is picked for some batch
		Client: &http.Client{Transport: chaos},
	})
	fig, err := shift.RunFigure7(quadOptions(eng))
	if err != nil {
		t.Fatal(err)
	}
	if got := figureBytes(t, fig); string(got) != string(want) {
		t.Fatal("figure after mid-sweep worker kill differs from single-host")
	}
	st := coord.Stats()
	if st.BatchesRerouted == 0 && st.CellsFallback == 0 {
		t.Fatalf("kill produced neither re-routes nor fallback: %+v", st)
	}
	if st.DispatchErrors == 0 {
		t.Fatalf("kill injected no dispatch errors: %+v", st)
	}
}

// TestClusterStallHedges pins hedging: the router prefers a stalled
// worker, the hedge timer fires, and the batch completes on the backup
// before the primary's timeout.
func TestClusterStallHedges(t *testing.T) {
	srvStall, _, _ := newTestWorker(t)
	srvFast, _, _ := newTestWorker(t)
	chaos := newChaosTransport()
	chaos.set(t, srvStall.URL, &chaosRule{stall: true, killAfter: -1})
	coord, eng := newCoordinatorEngine(t, Config{
		Peers:        []string{srvStall.URL, srvFast.URL},
		Router:       preferRouter{prefix: srvStall.URL},
		Client:       &http.Client{Transport: chaos},
		HedgeAfter:   20 * time.Millisecond,
		BatchTimeout: 10 * time.Second,
	})
	res, err := eng.RunOne(tinyConfig(shift.DesignSHIFT))
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := shift.Run(tinyConfig(shift.DesignSHIFT))
	if err != nil {
		t.Fatal(err)
	}
	if res != wantRes {
		t.Fatal("hedged result differs from local Run")
	}
	if st := coord.Stats(); st.BatchesHedged == 0 {
		t.Fatalf("stalled primary was never hedged: %+v", st)
	}
}

// TestFailedHedgeIsNotRetried: when a straggling primary and its hedge
// both fail, neither is dispatched again — both count as tried — and
// the batch falls back in-process instead of paying another dispatch.
func TestFailedHedgeIsNotRetried(t *testing.T) {
	var mu sync.Mutex
	posts := map[string]int{}
	failing := func(name string, delay time.Duration) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			mu.Lock()
			posts[name]++
			mu.Unlock()
			time.Sleep(delay)
			http.Error(rw, "failing", http.StatusInternalServerError)
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	primary, hedge := failing("primary", 100*time.Millisecond), failing("hedge", 0)
	coord := New(Config{
		Peers:      []string{primary.URL, hedge.URL},
		Router:     preferRouter{prefix: primary.URL},
		HedgeAfter: 20 * time.Millisecond,
	})
	defer coord.Close()
	cfg := tinyConfig(shift.DesignBaseline)
	rs, err := coord.ExecBatch([]shift.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := shift.Run(cfg); rs[0] != want {
		t.Fatal("fallback result differs from local Run")
	}
	mu.Lock()
	defer mu.Unlock()
	if posts["primary"] != 1 || posts["hedge"] != 1 {
		t.Fatalf("POSTs: primary %d, hedge %d; want one each", posts["primary"], posts["hedge"])
	}
	if st := coord.Stats(); st.BatchesHedged != 1 || st.CellsFallback != 1 {
		t.Fatalf("stats %+v, want one hedge and one cell fallen back", st)
	}
}

// preferRouter orders the member whose address has the given prefix
// first — a deterministic way to aim traffic at a scripted worker.
type preferRouter struct{ prefix string }

// Pick moves the preferred member to the front, keeping the rest in
// candidate order.
func (r preferRouter) Pick(_ string, candidates []*Member) []*Member {
	out := make([]*Member, 0, len(candidates))
	var rest []*Member
	for _, m := range candidates {
		if strings.HasPrefix(m.addr, r.prefix) {
			out = append(out, m)
		} else {
			rest = append(rest, m)
		}
	}
	return append(out, rest...)
}

// TestAllWorkersDownFallsBack pins graceful degradation: with every
// peer unreachable, the coordinator runs batches in-process and the
// sweep still matches single-host output exactly.
func TestAllWorkersDownFallsBack(t *testing.T) {
	want := singleHostFigure7(t)
	chaos := newChaosTransport()
	srv, _, _ := newTestWorker(t)
	chaos.set(t, srv.URL, &chaosRule{partitioned: true, killAfter: -1})
	coord, eng := newCoordinatorEngine(t, Config{
		Peers:  []string{srv.URL, "127.0.0.1:1"},
		Client: &http.Client{Transport: chaos},
	})
	fig, err := shift.RunFigure7(tinyOptions(eng))
	if err != nil {
		t.Fatal(err)
	}
	if got := figureBytes(t, fig); string(got) != string(want) {
		t.Fatal("degraded in-process figure differs from single-host")
	}
	if st := coord.Stats(); st.CellsFallback == 0 {
		t.Fatalf("no cells fell back with all workers down: %+v", st)
	}
}

// TestProbeHealthStateMachine drives the up → suspect → down → up
// lifecycle through manual probes against a health endpoint that can
// be failed and restored.
func TestProbeHealthStateMachine(t *testing.T) {
	var healthy sync.Map
	healthy.Store("ok", true)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if ok, _ := healthy.Load("ok"); ok.(bool) {
			rw.WriteHeader(http.StatusOK)
			return
		}
		rw.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	coord := New(Config{Peers: []string{srv.URL}})
	defer coord.Close()

	state := func() string { return coord.Members()[0].State }
	coord.Probe()
	if got := state(); got != "up" {
		t.Fatalf("after healthy probe: %s, want up", got)
	}
	healthy.Store("ok", false)
	coord.Probe()
	if got := state(); got != "suspect" {
		t.Fatalf("after 1 failure: %s, want suspect", got)
	}
	coord.Probe()
	coord.Probe()
	if got := state(); got != "down" {
		t.Fatalf("after 3 failures: %s, want down", got)
	}
	if st := coord.Stats(); st.WorkersDown != 1 || st.WorkersUp != 0 {
		t.Fatalf("stats disagree with state machine: %+v", st)
	}
	// Down workers keep being probed: recovery rejoins automatically.
	healthy.Store("ok", true)
	coord.Probe()
	if got := state(); got != "up" {
		t.Fatalf("after recovery probe: %s, want up", got)
	}
	ms := coord.Members()[0]
	if ms.Fails != 0 || ms.LastErr != "" || ms.LastSeen.IsZero() {
		t.Fatalf("recovered member keeps failure residue: %+v", ms)
	}
}

// TestClusterErrorParity pins end-to-end error equivalence: a grid
// with a failing cell reports the same error string through the
// cluster as through the single-host engine.
func TestClusterErrorParity(t *testing.T) {
	bad := tinyConfig(shift.Design(99))
	cells := []shift.Cell{
		{Label: "good", Config: tinyConfig(shift.DesignBaseline)},
		{Label: "bad", Config: bad},
	}
	local := shift.NewEngine(2, nil)
	_, wantErr := local.RunAll(cells)
	if wantErr == nil {
		t.Fatal("single-host RunAll succeeded on a bad cell")
	}

	srv, _, _ := newTestWorker(t)
	_, eng := newCoordinatorEngine(t, Config{Peers: []string{srv.URL}})
	_, gotErr := eng.RunAll(cells)
	if gotErr == nil {
		t.Fatal("clustered RunAll succeeded on a bad cell")
	}
	if gotErr.Error() != wantErr.Error() {
		t.Fatalf("clustered error %q, want single-host error %q", gotErr, wantErr)
	}
}

// TestBatchErrorClassification pins the two failure classes at the
// coordinator API: definitive per-cell failures surface as BatchError
// from ExecBatch (and, for a batch of one, as the raw error), with no
// re-route and the worker still healthy.
func TestBatchErrorClassification(t *testing.T) {
	srv, w, _ := newTestWorker(t)
	coord := New(Config{Peers: []string{srv.URL}})
	defer coord.Close()

	bad := tinyConfig(shift.Design(99))
	_, execErr := coord.ExecBatch([]shift.Config{tinyConfig(shift.DesignBaseline), bad})
	var be *BatchError
	if !errors.As(execErr, &be) {
		t.Fatalf("ExecBatch error %v, want *BatchError", execErr)
	}
	if len(be.Cells) != 1 || be.Cells[1] == "" {
		t.Fatalf("BatchError cells %+v, want exactly cell 1", be.Cells)
	}
	_, wantErr := shift.Run(bad)
	if _, cellErr := coord.ExecBatch([]shift.Config{bad}); cellErr == nil || cellErr.Error() != wantErr.Error() {
		t.Fatalf("ExecBatch of one: error %v, want %v", cellErr, wantErr)
	}
	st := coord.Stats()
	if st.BatchesRerouted != 0 || st.DispatchErrors != 0 {
		t.Fatalf("definitive failure was treated as transport trouble: %+v", st)
	}
	if st.WorkersUp != 1 {
		t.Fatalf("worker marked unhealthy by a simulation failure: %+v", st)
	}
	if w.Batches() < 2 {
		t.Fatalf("worker served %d batches, want >= 2", w.Batches())
	}
}
