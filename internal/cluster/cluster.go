// Package cluster promotes shiftd into a fault-tolerant
// coordinator/worker sweep fabric. The coordinator implements the
// engine's Executor hook: once the engine has decided a shared-stream
// batch must actually run (store miss, not in flight), the coordinator
// routes the whole batch to a worker over POST /v1/batch instead of
// simulating it in-process. Routing is pluggable (Config.Router;
// stream-key affinity via rendezvous hashing by default), worker health
// is tracked up/suspect/down from dispatch outcomes and periodic
// heartbeat probes, transport failures re-route the batch to the next
// worker in the failover order under internal/retry's jittered backoff,
// stragglers are hedged to a second worker, and when no worker is
// reachable the coordinator degrades to in-process execution — a cluster
// of zero healthy workers behaves exactly like single-host shiftd.
//
// Determinism is inherited, not engineered: the simulator is a pure
// function of its Config, configs travel the wire as exact JSON (all
// fields exported, floats round-trip), and the engine's cell-keyed
// merge is unchanged — so a clustered sweep is byte-identical to a
// single-host one no matter which worker ran which batch, how many
// times a batch was re-routed, or whether a hedge produced a duplicate
// completion (duplicates carry identical content-addressed results).
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shift"
	"shift/internal/retry"
)

// memberState is a worker's health as seen by the coordinator.
type memberState int

// Worker health states. A worker starts Up (optimistically routable),
// turns Suspect after suspectAfter consecutive failures (deprioritized
// but still routable when nothing healthier exists), and Down after
// downAfter (not routed to, but still probed — a recovered worker
// rejoins automatically on its next successful heartbeat or dispatch).
const (
	// memberUp marks a worker answering dispatches and probes.
	memberUp memberState = iota
	// memberSuspect marks a worker with recent consecutive failures.
	memberSuspect
	// memberDown marks a worker past the failure threshold.
	memberDown
)

// The health state machine's thresholds, in consecutive failures, and
// the retry.Policy Base between re-routes (re-route k waits up to
// retryDelay<<k).
const (
	suspectAfter = 1
	downAfter    = 3
	retryDelay   = 25 * time.Millisecond
)

// String names the state for logs, stats, and readiness reports.
func (s memberState) String() string {
	switch s {
	case memberUp:
		return "up"
	case memberSuspect:
		return "suspect"
	case memberDown:
		return "down"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Member is one worker in the coordinator's membership view.
type Member struct {
	addr     string
	inflight atomic.Int64

	mu       sync.Mutex
	state    memberState
	fails    int
	lastErr  string
	lastSeen time.Time
}

// state snapshot under the member lock.
func (m *Member) snapshot() MemberStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemberStatus{
		Addr:     m.addr,
		State:    m.state.String(),
		Fails:    m.fails,
		LastErr:  m.lastErr,
		LastSeen: m.lastSeen,
		Inflight: m.inflight.Load(),
	}
}

// MemberStatus is a point-in-time health report for one worker,
// exposed by shiftd's /v1/cluster and /v1/readyz.
type MemberStatus struct {
	// Addr is the worker's base URL.
	Addr string `json:"addr"`
	// State is the health state name: "up", "suspect", or "down".
	State string `json:"state"`
	// Fails is the current consecutive-failure count.
	Fails int `json:"fails,omitempty"`
	// LastErr is the most recent dispatch or probe error (empty when
	// healthy).
	LastErr string `json:"last_err,omitempty"`
	// LastSeen is when the worker last answered successfully.
	LastSeen time.Time `json:"last_seen,omitempty"`
	// Inflight is the number of batches currently dispatched to it.
	Inflight int64 `json:"inflight"`
}

// Stats is a point-in-time snapshot of the coordinator's counters,
// surfaced through shiftd's /v1/stats and /v1/metrics.
type Stats struct {
	// WorkersUp, WorkersSuspect, and WorkersDown count members by
	// health state.
	WorkersUp, WorkersSuspect, WorkersDown int
	// BatchesRouted counts batches successfully executed on a worker.
	BatchesRouted int64
	// BatchesRerouted counts dispatch attempts re-routed to another
	// worker after a transport failure.
	BatchesRerouted int64
	// BatchesHedged counts straggler batches speculatively re-dispatched
	// to a second worker before the first answered.
	BatchesHedged int64
	// CellsFallback counts cells executed in-process because no worker
	// was reachable (graceful degradation).
	CellsFallback int64
	// DispatchErrors counts transport-level dispatch failures
	// (unreachable worker, timeout, bad status, undecodable reply).
	DispatchErrors int64
}

// Config configures a Coordinator.
type Config struct {
	// Peers are the workers' base URLs ("host:port" or
	// "http://host:port").
	Peers []string
	// Router orders the workers for each batch (nil = AffinityRouter).
	Router Router
	// Client is the HTTP client for dispatches and probes (nil = a
	// default client; per-request deadlines come from BatchTimeout).
	Client *http.Client
	// HeartbeatEvery is the health-probe period (0 disables the
	// background prober; Probe can still be called manually — tests
	// drive health deterministically this way).
	HeartbeatEvery time.Duration
	// BatchTimeout bounds one dispatch attempt (0 = default 2m).
	BatchTimeout time.Duration
	// Retries is how many additional workers a failed batch is
	// re-routed to before degrading to in-process execution (0 =
	// default: every remaining worker; negative = none).
	Retries int
	// HedgeAfter is how long a dispatch may run before a speculative
	// duplicate is sent to the next worker in the failover order
	// (0 disables hedging).
	HedgeAfter time.Duration
}

// Coordinator routes shared-stream batches to a cluster of workers
// with affinity, failover, hedging, and graceful degradation. It
// implements shift.Executor: install it with Engine.SetExecutor and
// every figure, grid, and job transparently shards across the cluster.
// Safe for concurrent use.
type Coordinator struct {
	cfg    Config
	router Router
	client *http.Client

	mu      sync.Mutex
	members []*Member

	routed    atomic.Int64
	rerouted  atomic.Int64
	hedged    atomic.Int64
	fallback  atomic.Int64
	dispErrs  atomic.Int64
	closeOnce sync.Once
	done      chan struct{}
}

// New returns a coordinator over the configured peers. When
// HeartbeatEvery is set, a background prober starts immediately; Close
// stops it.
func New(cfg Config) *Coordinator {
	router := cfg.Router
	if router == nil {
		router = &AffinityRouter{}
	}
	if cfg.BatchTimeout <= 0 {
		cfg.BatchTimeout = 2 * time.Minute
	}
	if cfg.Retries == 0 {
		cfg.Retries = math.MaxInt - 1 // every worker: errNoWorker ends exec's loop
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	c := &Coordinator{
		cfg:    cfg,
		router: router,
		client: client,
		done:   make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		c.Join(p)
	}
	if cfg.HeartbeatEvery > 0 {
		go c.heartbeatLoop()
	}
	return c
}

// Close stops the background health prober. In-flight dispatches
// complete normally.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.done) })
}

// normalizeAddr turns a peer spec into a base URL: a missing scheme
// defaults to http, and trailing slashes are dropped.
func normalizeAddr(addr string) string {
	addr = strings.TrimRight(strings.TrimSpace(addr), "/")
	if addr == "" {
		return ""
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// Join adds a worker to the membership, reporting whether the address
// was new (idempotent: re-joining an existing address is a no-op and
// returns false — callers persisting membership append first joins
// only). New members start Up — optimistic routing discovers dead
// peers on the first dispatch or probe, which is cheaper than blocking
// joins on a health check.
func (c *Coordinator) Join(addr string) bool {
	addr = normalizeAddr(addr)
	if addr == "" {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		if m.addr == addr {
			return false
		}
	}
	c.members = append(c.members, &Member{addr: addr, state: memberUp})
	return true
}

// Members returns a health snapshot of every worker, address-ordered.
func (c *Coordinator) Members() []MemberStatus {
	c.mu.Lock()
	ms := append([]*Member(nil), c.members...)
	c.mu.Unlock()
	out := make([]MemberStatus, len(ms))
	for i, m := range ms {
		out[i] = m.snapshot()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Stats returns a snapshot of the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	s := Stats{
		BatchesRouted:   c.routed.Load(),
		BatchesRerouted: c.rerouted.Load(),
		BatchesHedged:   c.hedged.Load(),
		CellsFallback:   c.fallback.Load(),
		DispatchErrors:  c.dispErrs.Load(),
	}
	for _, m := range c.Members() {
		switch m.State {
		case "up":
			s.WorkersUp++
		case "suspect":
			s.WorkersSuspect++
		default:
			s.WorkersDown++
		}
	}
	return s
}

// markUp records a successful dispatch or probe: the worker is Up and
// its failure streak resets.
func (c *Coordinator) markUp(m *Member) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state = memberUp
	m.fails = 0
	m.lastErr = ""
	m.lastSeen = time.Now()
}

// markFailed records a failed dispatch or probe and advances the
// health state machine: suspectAfter consecutive failures turn the
// worker Suspect, downAfter turn it Down.
func (c *Coordinator) markFailed(m *Member, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fails++
	if err != nil {
		m.lastErr = err.Error()
	}
	switch {
	case m.fails >= downAfter:
		m.state = memberDown
	case m.fails >= suspectAfter:
		m.state = memberSuspect
	}
}

// routable returns the members the router may choose from: the Up
// members, or — when nothing is Up — the Suspect ones (better a shaky
// worker than none; Down workers are never routed to, only probed).
func (c *Coordinator) routable() []*Member {
	c.mu.Lock()
	ms := append([]*Member(nil), c.members...)
	c.mu.Unlock()
	var up, suspect []*Member
	for _, m := range ms {
		m.mu.Lock()
		st := m.state
		m.mu.Unlock()
		switch st {
		case memberUp:
			up = append(up, m)
		case memberSuspect:
			suspect = append(suspect, m)
		}
	}
	if len(up) > 0 {
		return up
	}
	return suspect
}

// heartbeatLoop probes all members every HeartbeatEvery until Close.
func (c *Coordinator) heartbeatLoop() {
	t := time.NewTicker(c.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			c.Probe()
		}
	}
}

// Probe health-checks every member once (GET /v1/healthz), including
// Down ones — a recovered worker rejoins on its first passing probe.
// The background prober calls this on its ticker; tests call it
// directly to drive the health state machine deterministically.
func (c *Coordinator) Probe() {
	c.mu.Lock()
	ms := append([]*Member(nil), c.members...)
	c.mu.Unlock()
	timeout := c.cfg.HeartbeatEvery
	if timeout <= 0 || timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	var wg sync.WaitGroup
	for _, m := range ms {
		wg.Add(1)
		go func(m *Member) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.addr+"/v1/healthz", nil)
			if err != nil {
				c.markFailed(m, err)
				return
			}
			resp, err := c.client.Do(req)
			if err != nil {
				c.markFailed(m, fmt.Errorf("heartbeat: %w", err))
				return
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				c.markFailed(m, fmt.Errorf("heartbeat: status %d", resp.StatusCode))
				return
			}
			c.markUp(m)
		}(m)
	}
	wg.Wait()
}

// ExecBatch implements shift.Executor: a shared-stream batch — or a
// single cell, as a batch of one — through the routing, failover, and
// fallback machinery. A definitive per-cell failure surfaces as a
// BatchError, on which the engine re-runs each member as a batch of one;
// a batch of one fails with its member's exact error.
func (c *Coordinator) ExecBatch(cfgs []shift.Config) ([]shift.RunResult, error) {
	rs, err := c.exec(cfgs)
	var be *BatchError
	if len(cfgs) == 1 && errors.As(err, &be) {
		// Definitive single-cell failure: surface the worker's raw
		// simulation error so the engine's "cell <label>:" wrap
		// reproduces the exact single-host message.
		if msg, ok := be.Cells[0]; ok {
			return nil, errors.New(msg)
		}
	}
	return rs, err
}

// errNoWorker ends a batch's re-routes when no untried worker is
// routable. It is not transient, so the retry loop stops at once.
var errNoWorker = errors.New("cluster: no untried worker")

// exec routes one batch: order the routable workers for the batch's
// stream key, dispatch to the first (hedging to the second when the
// first straggles), re-route transport failures down the failover
// order under one retry.Policy, and degrade to in-process execution
// when no untried worker (hedges count as tried) or re-route remains.
// Definitive worker answers (results or BatchError) return immediately —
// re-routing a deterministic simulation failure would just reproduce it.
func (c *Coordinator) exec(cfgs []shift.Config) ([]shift.RunResult, error) {
	streamKey := cfgs[0].StreamKey()
	tried := make(map[string]bool)
	order := c.pickOrder(streamKey, tried)
	var rs []shift.RunResult
	err := retry.Policy{Base: retryDelay}.Do(max(c.cfg.Retries, 0)+1, func(attempt int) error {
		if len(order) == 0 {
			return errNoWorker // only at attempt 0: later ones are checked below
		}
		if attempt > 0 {
			c.rerouted.Add(1)
		}
		var hedge *Member
		if len(order) > 1 {
			hedge = order[1]
		}
		var err error
		if rs, err = c.dispatch(order[0], hedge, cfgs, tried); retry.Transient(err) {
			// Transport failure: the next untried worker, if any, takes
			// the batch after the backoff.
			if order = c.pickOrder(streamKey, tried); len(order) == 0 {
				return errNoWorker
			}
		}
		return err
	}, retry.Transient)
	switch {
	case err == nil:
		c.routed.Add(1)
		return rs, nil
	case errors.As(err, new(*BatchError)):
		return nil, err
	}
	// Graceful degradation: no worker reachable — run in-process, which
	// is trivially byte-identical to the single-host engine.
	c.fallback.Add(int64(len(cfgs)))
	return shift.RunBatch(cfgs)
}

// pickOrder returns the untried routable workers in the router's
// preference order for streamKey.
func (c *Coordinator) pickOrder(streamKey string, tried map[string]bool) []*Member {
	candidates := c.routable()
	if len(tried) > 0 {
		kept := candidates[:0:0]
		for _, m := range candidates {
			if !tried[m.addr] {
				kept = append(kept, m)
			}
		}
		candidates = kept
	}
	if len(candidates) == 0 {
		return nil
	}
	return c.router.Pick(streamKey, candidates)
}

// dispatchReply is one worker's answer to a (possibly hedged)
// dispatch.
type dispatchReply struct {
	m   *Member
	rs  []shift.RunResult
	err error
}

// dispatch posts the batch to target, speculatively duplicating it to
// hedge if target has not answered within HedgeAfter, and marks each
// worker it posts to in tried. The first definitive answer wins;
// duplicate completions are harmless because results are
// content-addressed and identical. Health bookkeeping happens per
// worker: whichever answered well is marked up, whichever failed is
// marked failed.
func (c *Coordinator) dispatch(target, hedge *Member, cfgs []shift.Config, tried map[string]bool) ([]shift.RunResult, error) {
	ch := make(chan dispatchReply, 2)
	post := func(m *Member) {
		tried[m.addr] = true
		go func() {
			rs, err := c.post(m, cfgs)
			ch <- dispatchReply{m: m, rs: rs, err: err}
		}()
	}
	post(target)
	outstanding := 1
	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if hedge != nil && c.cfg.HedgeAfter > 0 {
		hedgeTimer = time.NewTimer(c.cfg.HedgeAfter)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}
	var firstErr error
	for outstanding > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil
			c.hedged.Add(1)
			outstanding++
			post(hedge)
		case r := <-ch:
			outstanding--
			if r.err == nil {
				c.markUp(r.m)
				return r.rs, nil
			}
			var be *BatchError
			if errors.As(r.err, &be) {
				// Definitive: the worker is healthy, the simulation
				// failed. Hedge duplicates (if any) drain in background.
				c.markUp(r.m)
				return nil, r.err
			}
			c.dispErrs.Add(1)
			c.markFailed(r.m, r.err)
			if firstErr == nil {
				firstErr = r.err
			}
		}
	}
	return nil, firstErr
}

// post performs one POST /v1/batch to m, bounded by BatchTimeout, and
// decodes the reply. Transport-level problems (unreachable, timeout,
// bad status, short or mismatched reply) return errDispatch-wrapped
// errors — the re-routable class; worker-reported per-cell simulation
// failures return a *BatchError — the definitive class.
func (c *Coordinator) post(m *Member, cfgs []shift.Config) ([]shift.RunResult, error) {
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	body, err := json.Marshal(BatchRequest{Cells: cfgs, Specs: batchSpecs(cfgs)})
	if err != nil {
		return nil, fmt.Errorf("%w: encoding batch: %v", errDispatch, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.BatchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.addr+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errDispatch, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errDispatch, err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%w: %s: status %d: %s", errDispatch, m.addr, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return nil, fmt.Errorf("%w: decoding reply: %v", errDispatch, err)
	}
	if len(br.Results) != len(cfgs) {
		return nil, fmt.Errorf("%w: %d cells sent, %d results returned", errDispatch, len(cfgs), len(br.Results))
	}
	out := make([]shift.RunResult, len(cfgs))
	be := &BatchError{Cells: make(map[int]string)}
	for i, r := range br.Results {
		if r.Error != "" {
			be.Cells[i] = r.Error
			continue
		}
		if r.Result == nil {
			return nil, fmt.Errorf("%w: cell %d: no result and no error", errDispatch, i)
		}
		if want := cfgs[i].Key(); r.Key != want {
			return nil, fmt.Errorf("%w: cell %d: key mismatch (worker %s, coordinator %s)", errDispatch, i, r.Key, want)
		}
		out[i] = *r.Result
	}
	if len(be.Cells) > 0 {
		return nil, be
	}
	return out, nil
}
