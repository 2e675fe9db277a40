package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"shift"
	"shift/internal/cluster"
	"shift/internal/jobs"
	"shift/internal/store"
	"shift/internal/validate"
)

// server wires the HTTP API to one shared engine and result store. All
// endpoints funnel their cells into the same engine, so concurrent
// requests — whether single cells, grids, whole figures, or async job
// cells — share simulations through the engine's in-flight
// deduplication and the store.
type server struct {
	engine   *shift.Engine
	store    shift.ResultStore
	base     shift.Options
	jobs     *jobs.Manager
	maxBody  int64
	started  time.Time
	requests atomic.Int64

	// Cluster wiring, set after construction when the process runs in a
	// cluster role (see main). cluster is the coordinator (batches from
	// this process shard across workers; /v1/cluster is served); worker
	// serves POST /v1/batch on the shared engine; blobs exports the
	// store's raw blob tier under /v1/blobs; remoteErrs reports the
	// remote-store failure count when the store's persistent tier is a
	// remote peer.
	cluster    *cluster.Coordinator
	worker     *cluster.Worker
	blobs      http.Handler
	remoteErrs func() int64

	// persistJoin durably records a first-time cluster join (set when
	// the coordinator runs with -state-dir, so membership learned via
	// POST /v1/cluster/join survives a restart). nil = no persistence.
	persistJoin func(addr string)

	// streamHeartbeat is the idle-stream heartbeat period for
	// /v1/jobs/{id}/stream (0 = 15s): an NDJSON "heartbeat" event keeps
	// idle proxies from dropping a silent connection between cells.
	streamHeartbeat time.Duration

	// drainRetryAfter is the Retry-After value (whole seconds, >= 1)
	// for submissions refused during graceful drain: the shutdown grace
	// budget, after which a restarted or replacement process can accept
	// the retry.
	drainRetryAfter int
}

// newServer builds a server around a shared engine, its store, the base
// options that requests override per-field, the async job manager, and
// the request-body size limit in bytes.
func newServer(engine *shift.Engine, rs shift.ResultStore, base shift.Options, jm *jobs.Manager, maxBody int64) *server {
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	return &server{engine: engine, store: rs, base: base, jobs: jm, maxBody: maxBody, started: time.Now()}
}

// handler routes the /v1 API. Method matching is handled by the
// ServeMux patterns (a POST to a GET route answers 405).
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/grid", s.handleGrid)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/figures/{name}", s.handleFigure)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	if s.worker != nil {
		mux.HandleFunc("POST /v1/batch", s.worker.HandleBatch)
	}
	if s.blobs != nil {
		blobs := http.StripPrefix("/v1/blobs", s.blobs)
		mux.Handle("/v1/blobs", blobs)
		mux.Handle("/v1/blobs/", blobs)
	}
	if s.cluster != nil {
		mux.HandleFunc("GET /v1/cluster", s.handleCluster)
		mux.HandleFunc("POST /v1/cluster/join", s.handleClusterJoin)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// knownWorkload reports whether a request's workload name is runnable:
// a Table I catalog name or a spec ID registered earlier in this
// process — so request validation rejects unknown names with a 400
// instead of letting them fail deep in the engine as a 500.
func knownWorkload(name string) bool { return shift.KnownWorkload(name) }

// decodeBody decodes the request body as JSON into dst under the
// server's body-size limit, writing the error response itself (400 on
// malformed JSON, 413 when the body exceeds the limit) and reporting
// whether decoding succeeded.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes (see -max-body)", mbe.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return false
	}
	return true
}

// clientKey identifies the client for admission control: the
// X-Client-ID header when present, the remote IP otherwise.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// cellSpec is the wire form of one simulation cell. Zero-valued fields
// inherit the server's base options (scale, seed, core count), so the
// minimal request is just {"workload": ..., "design": ...}.
type cellSpec struct {
	// Label optionally names the cell in grid responses and error
	// messages; it has no effect on execution.
	Label string `json:"label,omitempty"`
	// Workload is a Table I workload name, or the ID of a spec compiled
	// earlier in this process ("spec:..."). Exactly one of Workload and
	// Spec is required.
	Workload string `json:"workload"`
	// Spec is an inline workload spec document (the JSON form accepted
	// by shift.LoadSpec). The cell runs the compiled spec exactly like a
	// catalog workload — same keys, memoization, and batching — and the
	// response's workload field carries the spec's display name.
	// Trace-replay specs are rejected over the wire (they name
	// server-local files); submit those through shiftsim -spec.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Design is a figure-legend design name: "Baseline", "NextLine",
	// "PIF_2K", "PIF_32K", "ZeroLat-SHIFT", "SHIFT", "TIFS" (required).
	Design string `json:"design"`
	// CoreType is "Fat-OoO", "Lean-OoO", or "Lean-IO" (default: the
	// server's base core type).
	CoreType string `json:"core_type,omitempty"`
	// Cores is the CMP size, 1-16 (default: base).
	Cores int `json:"cores,omitempty"`
	// HistEntries overrides the history capacity (0 = design default).
	HistEntries int `json:"hist_entries,omitempty"`
	// PredictionOnly and CommonalityMode select the trace-based
	// methodologies of Sections 5.2 and 3.
	PredictionOnly  bool `json:"prediction_only,omitempty"`
	CommonalityMode bool `json:"commonality_mode,omitempty"`
	// ElimProb is the Figure 1 miss-elimination probability.
	ElimProb float64 `json:"elim_prob,omitempty"`
	// WarmupRecords/MeasureRecords override the window lengths
	// (default: base).
	WarmupRecords  int64 `json:"warmup_records,omitempty"`
	MeasureRecords int64 `json:"measure_records,omitempty"`
	// Seed overrides the simulator seed (default: base).
	Seed *int64 `json:"seed,omitempty"`
	// SamplePeriod enables interval sampling with functional warming:
	// one interval of every SamplePeriod is simulated in detail and the
	// rest are fast-forwarded; the result carries standard-error and
	// confidence-interval fields and is an approximation, keyed
	// separately from exact results. 0 or 1 (the default) is exact
	// simulation.
	SamplePeriod int64 `json:"sample_period,omitempty"`
	// SampleInterval is the measured interval length in records per
	// core (0 = default 500).
	SampleInterval int64 `json:"sample_interval,omitempty"`
	// SampleWarmup is the fraction of each interval re-simulated in
	// detail before measuring (0 = default 0.25).
	SampleWarmup float64 `json:"sample_warmup,omitempty"`
	// SampleConfidence is the confidence level of the reported bounds:
	// 0.90, 0.95 (default on 0), or 0.99.
	SampleConfidence float64 `json:"sample_confidence,omitempty"`
}

// validate rejects field values the engine would only fail on deep
// inside a simulation, naming the offending wire field — so clients
// get a 400 up front instead of a misleading 500. The range rules are
// the shared constraint table of internal/validate; this wrapper only
// renders field names in the wire convention (quoted JSON names) and
// adds the workload/design/spec resolution rules.
func (c cellSpec) validate() error {
	if c.Workload == "" && len(c.Spec) == 0 {
		return errors.New("missing \"workload\" (or inline \"spec\")")
	}
	if c.Workload != "" && len(c.Spec) > 0 {
		return errors.New("\"workload\" and \"spec\" are mutually exclusive")
	}
	if c.Workload != "" && !knownWorkload(c.Workload) {
		return fmt.Errorf("unknown \"workload\" %q (valid: %s)",
			c.Workload, strings.Join(shift.Workloads(), ", "))
	}
	if c.Design == "" {
		return errors.New("missing \"design\"")
	}
	cell := validate.Cell{
		Cores:             c.Cores,
		CoresZeroInherits: true,
		HistEntries:       c.HistEntries,
		ElimProb:          c.ElimProb,
		WarmupRecords:     c.WarmupRecords,
		MeasureRecords:    c.MeasureRecords,
		SamplePeriod:      c.SamplePeriod,
		SampleInterval:    c.SampleInterval,
		SampleWarmup:      c.SampleWarmup,
		SampleConfidence:  c.SampleConfidence,
	}
	if fe := cell.Check(); fe != nil {
		return fmt.Errorf("%q %s", fe.Field, fe.Msg)
	}
	return nil
}

// config resolves the wire cell against the server's base options.
func (c cellSpec) config(base shift.Options) (shift.Config, error) {
	if err := c.validate(); err != nil {
		return shift.Config{}, err
	}
	workloadID := c.Workload
	if len(c.Spec) > 0 {
		// Compile and register the inline spec; the cell then runs its
		// content-addressed ID like any workload name. Identical spec
		// content registers once, so repeated submissions memoize and
		// batch against each other.
		id, err := shift.LoadSpecRestricted(c.Spec)
		if err != nil {
			return shift.Config{}, fmt.Errorf("\"spec\": %w", err)
		}
		workloadID = id
	}
	d, err := shift.ParseDesign(c.Design)
	if err != nil {
		return shift.Config{}, err
	}
	ct := base.CoreType
	if c.CoreType != "" {
		if ct, err = shift.ParseCoreType(c.CoreType); err != nil {
			return shift.Config{}, err
		}
	}
	cfg := shift.Config{
		Workload:        workloadID,
		Design:          d,
		CoreType:        ct,
		Cores:           base.Cores,
		HistEntries:     c.HistEntries,
		PredictionOnly:  c.PredictionOnly,
		CommonalityMode: c.CommonalityMode,
		ElimProb:        c.ElimProb,
		WarmupRecords:   base.WarmupRecords,
		MeasureRecords:  base.MeasureRecords,
		Seed:            base.Seed,
	}
	if c.Cores != 0 {
		cfg.Cores = c.Cores
	}
	if c.WarmupRecords != 0 {
		cfg.WarmupRecords = c.WarmupRecords
	}
	if c.MeasureRecords != 0 {
		cfg.MeasureRecords = c.MeasureRecords
	}
	if c.Seed != nil {
		cfg.Seed = *c.Seed
	}
	cfg.Sampling = shift.Sampling{
		Period:          c.SamplePeriod,
		IntervalRecords: c.SampleInterval,
		WarmupFraction:  c.SampleWarmup,
		Confidence:      c.SampleConfidence,
	}
	// Cross-field rules that need the base-resolved values: a mix spec
	// pins the core count, and the sampling chunk (period x interval)
	// must fit at least twice in the resolved measurement window — the
	// engine needs two measured intervals for a standard error, and
	// catching these here turns mid-simulation failures into 400s.
	if n := shift.WorkloadCores(workloadID); n != 0 && n != cfg.Cores {
		return shift.Config{}, fmt.Errorf("\"cores\" workload is a %d-core mix, configured for %d cores", n, cfg.Cores)
	}
	if fe := validate.SampledWindow(cfg.Sampling.Period, cfg.Sampling.IntervalRecords, cfg.MeasureRecords); fe != nil {
		return shift.Config{}, fmt.Errorf("%q %s", fe.Field, fe.Msg)
	}
	return cfg, nil
}

// runResponse is the POST /v1/run reply.
type runResponse struct {
	// Key is the cell's content address (shift.Config.Key): the same
	// key always denotes the same bit-identical result.
	Key string `json:"key"`
	// Result is the simulation result (field names as in
	// shift.RunResult).
	Result shift.RunResult `json:"result"`
}

// handleRun serves POST /v1/run: one cell in, one result out.
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var spec cellSpec
	if !s.decodeBody(w, r, &spec) {
		return
	}
	cfg, err := spec.config(s.base)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := await(r.Context(), func() (shift.RunResult, error) {
		return s.engine.RunOne(cfg)
	})
	if err != nil {
		writeRunError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, runResponse{Key: cfg.Key(), Result: res})
}

// gridRequest is the POST /v1/grid and POST /v1/jobs body.
type gridRequest struct {
	// Cells is the experiment grid; duplicates are simulated once.
	Cells []cellSpec `json:"cells"`
}

// gridResponse is the POST /v1/grid reply: one entry per requested
// cell, in request order (the engine's deterministic cell-keyed
// merge — never completion order).
type gridResponse struct {
	Results []gridCellResult `json:"results"`
}

// gridCellResult pairs one requested cell with its result.
type gridCellResult struct {
	Label  string          `json:"label,omitempty"`
	Key    string          `json:"key"`
	Result shift.RunResult `json:"result"`
}

// cellsFromSpecs validates and resolves a wire cell list; the error
// names the failing cell and field.
func (s *server) cellsFromSpecs(specs []cellSpec) ([]shift.Cell, error) {
	cells := make([]shift.Cell, len(specs))
	for i, spec := range specs {
		cfg, err := spec.config(s.base)
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		label := spec.Label
		if label == "" {
			label = fmt.Sprintf("%s/%s", shift.WorkloadDisplayName(cfg.Workload), cfg.Design)
		}
		cells[i] = shift.Cell{Label: label, Config: cfg}
	}
	return cells, nil
}

// handleGrid serves POST /v1/grid: a cell list in, results in cell
// order out.
func (s *server) handleGrid(w http.ResponseWriter, r *http.Request) {
	var req gridRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Cells) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty \"cells\""))
		return
	}
	cells, err := s.cellsFromSpecs(req.Cells)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	results, err := await(r.Context(), func() ([]shift.RunResult, error) {
		return s.engine.RunAll(cells)
	})
	if err != nil {
		writeRunError(w, r, err)
		return
	}
	resp := gridResponse{Results: make([]gridCellResult, len(cells))}
	for i := range cells {
		resp.Results[i] = gridCellResult{
			Label:  cells[i].Label,
			Key:    cells[i].Config.Key(),
			Result: results[i],
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// jobSubmitResponse is the POST /v1/jobs reply (202 Accepted).
type jobSubmitResponse struct {
	// ID is the job identifier for the status/stream/cancel endpoints.
	ID string `json:"id"`
	// State is the job's initial state ("queued").
	State string `json:"state"`
	// Cells is the number of scheduled cells.
	Cells int `json:"cells"`
	// StatusURL and StreamURL are the polling and streaming endpoints.
	StatusURL string `json:"status_url"`
	StreamURL string `json:"stream_url"`
}

// handleJobSubmit serves POST /v1/jobs: the same body as /v1/grid, but
// instead of blocking it answers 202 with a job id after token-bucket
// admission (429 + Retry-After when the client's bucket is dry, 503 +
// Retry-After when the queue is full). One admission token is charged
// per cell.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req gridRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Cells) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty \"cells\""))
		return
	}
	cells, err := s.cellsFromSpecs(req.Cells)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Refuse before charging the admission bucket when shutdown has
	// begun: the rejection is free to retry elsewhere.
	if s.jobs.Draining() {
		s.writeDraining(w)
		return
	}
	d := s.jobs.Admit(clientKey(r), len(cells))
	if d.Never {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("job of %d cells exceeds the admission burst capacity (see -job-burst)", len(cells)))
		return
	}
	if !d.OK {
		w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(d.RetryAfter)))
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("admission bucket empty; retry in %s", d.RetryAfter))
		return
	}
	j, err := s.jobs.SubmitFrom(clientKey(r), cells)
	if errors.Is(err, jobs.ErrDraining) {
		// The drain began between the check above and the submit; the
		// answer is the same clean 503.
		s.writeDraining(w)
		return
	}
	if errors.Is(err, jobs.ErrQueueFull) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, jobSubmitResponse{
		ID:        j.ID(),
		State:     string(jobs.StateQueued),
		Cells:     len(cells),
		StatusURL: "/v1/jobs/" + j.ID(),
		StreamURL: "/v1/jobs/" + j.ID() + "/stream",
	})
}

// writeDraining answers a submission during graceful shutdown: a clean
// 503 with an integer Retry-After covering the drain grace, so clients
// and proxies see an orderly refusal — never a connection reset — and
// know when a restarted or replacement process can take the retry.
func (s *server) writeDraining(w http.ResponseWriter) {
	retry := s.drainRetryAfter
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeError(w, http.StatusServiceUnavailable,
		errors.New("shutting down: draining running cells; retry against another instance or after restart"))
}

// retrySeconds renders a Retry-After duration as whole seconds,
// rounded up to at least 1 — "Retry-After: 0" invites an immediate,
// certainly-rejected retry.
func retrySeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// jobStatusResponse is the GET /v1/jobs/{id} (and DELETE) reply:
// lifecycle state plus partial results as they land. Results is
// index-aligned with the submitted cells; entries are null until their
// cell completes, and once the state is "done" the array is
// bit-identical to the synchronous POST /v1/grid "results" for the
// same cells.
type jobStatusResponse struct {
	// ID is the job identifier.
	ID string `json:"id"`
	// State is "queued", "running", "done", "failed", or "cancelled".
	State string `json:"state"`
	// CancelRequested reports a pending cancellation (the state turns
	// "cancelled" once running cells drain).
	CancelRequested bool `json:"cancel_requested,omitempty"`
	// Cells, Completed, Failed, and Dropped count the job's cells by
	// outcome (Dropped = queued cells discarded by cancellation).
	Cells     int `json:"cells"`
	Completed int `json:"completed"`
	Failed    int `json:"failed,omitempty"`
	Dropped   int `json:"dropped,omitempty"`
	// Created, Started, and Finished are lifecycle timestamps.
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Results holds one entry per submitted cell (null until the cell
	// completes), in request order — never completion order.
	Results []*gridCellResult `json:"results"`
	// CellErrors maps cell index to error message for failed cells.
	CellErrors map[int]string `json:"cell_errors,omitempty"`
}

// jobStatus converts a registry snapshot to the wire form.
func jobStatus(st jobs.Status) jobStatusResponse {
	resp := jobStatusResponse{
		ID:              st.ID,
		State:           string(st.State),
		CancelRequested: st.CancelRequested && !st.State.Terminal(),
		Cells:           st.Cells,
		Completed:       st.Completed,
		Failed:          st.Failed,
		Dropped:         st.Dropped,
		Created:         st.Created,
		Results:         make([]*gridCellResult, st.Cells),
	}
	if !st.Started.IsZero() {
		t := st.Started
		resp.Started = &t
	}
	if !st.Finished.IsZero() {
		t := st.Finished
		resp.Finished = &t
	}
	for i := 0; i < st.Cells; i++ {
		if st.Done[i] {
			resp.Results[i] = &gridCellResult{Label: st.Labels[i], Key: st.Keys[i], Result: st.Results[i]}
		}
		if st.CellErrs[i] != "" {
			if resp.CellErrors == nil {
				resp.CellErrors = make(map[int]string)
			}
			resp.CellErrors[i] = st.CellErrs[i]
		}
	}
	return resp
}

// handleJobStatus serves GET /v1/jobs/{id}.
func (s *server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, jobStatus(j.Snapshot()))
}

// handleJobCancel serves DELETE /v1/jobs/{id}: queued cells are
// dropped, running cells finish and publish their results (the engine
// seeds the store either way). Cancelling a finished job is a no-op;
// the reply is the job's status after the cancellation request.
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, jobStatus(j.Snapshot()))
}

// jobStreamEvent is one NDJSON line of GET /v1/jobs/{id}/stream: a
// "cell" event per finished cell as it lands, a "heartbeat" event on
// every idle period (see -stream-heartbeat) so proxies and clients can
// tell a slow simulation from a dead connection, then one final "end"
// event carrying the job's terminal state.
type jobStreamEvent struct {
	// Type is "cell", "heartbeat", or "end".
	Type string `json:"type"`
	// Index is the cell's position in the submitted job ("cell").
	Index *int `json:"index,omitempty"`
	// Label and Key identify the cell ("cell").
	Label string `json:"label,omitempty"`
	Key   string `json:"key,omitempty"`
	// Result is the cell's result ("cell", success only).
	Result *shift.RunResult `json:"result,omitempty"`
	// Error is the cell's error message ("cell", failure only).
	Error string `json:"error,omitempty"`
	// State is the job's terminal state ("end").
	State string `json:"state,omitempty"`
}

// handleJobStream serves GET /v1/jobs/{id}/stream: newline-delimited
// JSON, one event per completed cell, replayed from the job's start and
// then followed live until the job reaches a terminal state or the
// client disconnects. While no cell finishes, a "heartbeat" event is
// emitted every streamHeartbeat period so the connection never goes
// silent long enough for an idle-timeout proxy to cut it.
func (s *server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	// Push the header out now: a client that opens the stream before any
	// cell has finished must still see the 200 immediately.
	if fl != nil {
		fl.Flush()
	}
	enc := json.NewEncoder(w)
	beat := s.streamHeartbeat
	if beat <= 0 {
		beat = 15 * time.Second
	}
	ticker := time.NewTicker(beat)
	defer ticker.Stop()
	n := 0
	for {
		evs, terminal, changed := j.EventsSince(n)
		for _, ev := range evs {
			we := jobStreamEvent{Type: ev.Type}
			switch ev.Type {
			case jobs.EventCell:
				idx := ev.Index
				we.Index = &idx
				we.Label = ev.Label
				we.Key = ev.Key
				if ev.Err != "" {
					we.Error = ev.Err
				} else {
					res := ev.Result
					we.Result = &res
				}
			case jobs.EventEnd:
				we.State = string(ev.State)
			}
			if err := enc.Encode(we); err != nil {
				log.Printf("shiftd: streaming job %s: %v", j.ID(), err)
				return
			}
		}
		n += len(evs)
		if len(evs) > 0 {
			ticker.Reset(beat)
			if fl != nil {
				fl.Flush()
			}
		}
		if terminal {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		case <-ticker.C:
			if err := enc.Encode(jobStreamEvent{Type: "heartbeat"}); err != nil {
				log.Printf("shiftd: streaming job %s: %v", j.ID(), err)
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
	}
}

// handleFigure serves GET /v1/figures/{name}: the named experiment
// driver's rendered output as text/plain — byte-identical to `shiftsim
// -experiment {name}` at the same options, since both dispatch through
// shift.RunExperiment. Query parameters quick, workloads (comma-
// separated), cores, seed, warmup, measure, sample (a sampling period;
// the figure is then regenerated in sampled mode, trading exactness
// for speed), sample_interval, sample_warm, and sample_confidence
// override the server's base options per request.
func (s *server) handleFigure(w http.ResponseWriter, r *http.Request) {
	opts, err := s.optionsFromQuery(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	name := r.PathValue("name")
	out, err := await(r.Context(), func() (string, error) {
		return shift.RunExperiment(name, opts)
	})
	if err != nil {
		if errors.Is(err, shift.ErrUnknownExperiment) {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeRunError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, out)
}

// optionsFromQuery applies per-request query overrides to the base
// options, validates them (unknown workloads, out-of-range cores, and
// malformed sampling policies are client errors, not simulation
// failures), and routes the work through the shared engine.
func (s *server) optionsFromQuery(q url.Values) (shift.Options, error) {
	o := s.base
	if v := q.Get("quick"); v != "" {
		quick, err := strconv.ParseBool(v)
		if err != nil {
			return o, fmt.Errorf("quick: %w", err)
		}
		if quick {
			o = shift.QuickOptions()
		}
	}
	if v := q.Get("workloads"); v != "" {
		o.Workloads = nil
		for _, w := range strings.Split(v, ",") {
			o.Workloads = append(o.Workloads, strings.TrimSpace(w))
		}
	}
	for _, p := range []struct {
		name string
		dst  *int64
	}{
		{"warmup", &o.WarmupRecords},
		{"measure", &o.MeasureRecords},
		{"seed", &o.Seed},
		{"sample", &o.Sampling.Period},
		{"sample_interval", &o.Sampling.IntervalRecords},
	} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return o, fmt.Errorf("%s: %w", p.name, err)
			}
			*p.dst = n
		}
	}
	for _, p := range []struct {
		name string
		dst  *float64
	}{
		{"sample_warm", &o.Sampling.WarmupFraction},
		{"sample_confidence", &o.Sampling.Confidence},
	} {
		if v := q.Get(p.name); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return o, fmt.Errorf("%s: %w", p.name, err)
			}
			*p.dst = f
		}
	}
	if v := q.Get("cores"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return o, fmt.Errorf("cores: %w", err)
		}
		o.Cores = n
	}
	if err := validateOptions(o); err != nil {
		return o, err
	}
	// All figure cells run on the shared engine: one store, one
	// in-flight table, across every concurrent request.
	o.Engine = s.engine
	return o, nil
}

// queryName maps the shared validator's canonical (JSON wire) field
// names to the figure endpoint's query-parameter spelling.
var queryName = map[string]string{
	"warmup_records":  "warmup",
	"measure_records": "measure",
	"sample_period":   "sample",
	"sample_warmup":   "sample_warm",
}

// queryField renders a canonical field name as its query parameter.
func queryField(field string) string {
	if q, ok := queryName[field]; ok {
		return q
	}
	return field
}

// validateOptions rejects query-override combinations the experiment
// drivers would only fail on mid-run, naming the offending query
// parameter. The range rules are the shared constraint table of
// internal/validate; only the field-name spelling is endpoint-local.
func validateOptions(o shift.Options) error {
	for _, w := range o.Workloads {
		if !knownWorkload(w) {
			return fmt.Errorf("workloads: unknown workload %q (valid: %s)",
				w, strings.Join(shift.Workloads(), ", "))
		}
		if n := shift.WorkloadCores(w); n != 0 && n != o.Cores {
			return fmt.Errorf("cores: workload %q is a %d-core mix, configured for %d cores", w, n, o.Cores)
		}
	}
	cell := validate.Cell{
		Cores:            o.Cores,
		WarmupRecords:    o.WarmupRecords,
		MeasureRecords:   o.MeasureRecords,
		SamplePeriod:     o.Sampling.Period,
		SampleInterval:   o.Sampling.IntervalRecords,
		SampleWarmup:     o.Sampling.WarmupFraction,
		SampleConfidence: o.Sampling.Confidence,
	}
	if fe := cell.Check(); fe != nil {
		return fmt.Errorf("%s: %s", queryField(fe.Field), fe.Msg)
	}
	if fe := validate.SampledWindow(o.Sampling.Period, o.Sampling.IntervalRecords, o.MeasureRecords); fe != nil {
		return fmt.Errorf("%s: %s", queryField(fe.Field), fe.Msg)
	}
	return nil
}

// handleHealthz serves GET /v1/healthz.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// clusterResponse is the GET /v1/cluster reply: the coordinator's
// membership view with per-worker health, plus the routing counters.
type clusterResponse struct {
	// Workers is the per-worker health snapshot, address-ordered.
	Workers []cluster.MemberStatus `json:"workers"`
	// WorkersUp/WorkersSuspect/WorkersDown count workers by state.
	WorkersUp      int `json:"workers_up"`
	WorkersSuspect int `json:"workers_suspect"`
	WorkersDown    int `json:"workers_down"`
	// BatchesRouted/BatchesRerouted/BatchesHedged count dispatched
	// batches by path; FallbackCells counts cells degraded to
	// in-process execution; DispatchErrors counts transport failures.
	BatchesRouted   int64 `json:"batches_routed"`
	BatchesRerouted int64 `json:"batches_rerouted"`
	BatchesHedged   int64 `json:"batches_hedged"`
	FallbackCells   int64 `json:"fallback_cells"`
	DispatchErrors  int64 `json:"dispatch_errors"`
}

// handleCluster serves GET /v1/cluster (coordinator only).
func (s *server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	st := s.cluster.Stats()
	writeJSON(w, http.StatusOK, clusterResponse{
		Workers:         s.cluster.Members(),
		WorkersUp:       st.WorkersUp,
		WorkersSuspect:  st.WorkersSuspect,
		WorkersDown:     st.WorkersDown,
		BatchesRouted:   st.BatchesRouted,
		BatchesRerouted: st.BatchesRerouted,
		BatchesHedged:   st.BatchesHedged,
		FallbackCells:   st.CellsFallback,
		DispatchErrors:  st.DispatchErrors,
	})
}

// joinRequest is the POST /v1/cluster/join body: a worker announcing
// its reachable base URL (shiftd -worker -join posts this at startup).
type joinRequest struct {
	// Addr is the worker's base URL ("host:port" or "http://host:port").
	Addr string `json:"addr"`
}

// handleClusterJoin serves POST /v1/cluster/join (coordinator only):
// adds the worker to the membership, idempotently, and answers with
// the updated membership view.
func (s *server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Addr == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing \"addr\""))
		return
	}
	if s.cluster.Join(req.Addr) && s.persistJoin != nil {
		s.persistJoin(req.Addr)
	}
	writeJSON(w, http.StatusOK, map[string]any{"workers": s.cluster.Members()})
}

// storeHealth reports the result store's failure-domain health when the
// store exposes it (TieredStore and DiskStore do; the in-memory cache
// has no failure domain and reports nothing).
func (s *server) storeHealth() (shift.StoreHealth, bool) {
	if hr, ok := s.store.(shift.HealthReporter); ok {
		return hr.Health(), true
	}
	return shift.StoreHealth{}, false
}

// readyzResponse is the GET /v1/readyz reply.
type readyzResponse struct {
	// Status is the lifecycle phase: "ready" (200), "recovering" (200:
	// journal replay re-admitted jobs that are still re-running, the
	// service is fully usable), "degraded" (503: serving but impaired),
	// or "draining" (503: graceful shutdown in progress, running cells
	// finishing, submissions refused).
	Status string `json:"status"`
	// Reasons lists each active degradation, one human-readable line
	// per condition (degraded only).
	Reasons []string `json:"reasons,omitempty"`
	// Recovering is the number of recovered jobs still working toward a
	// terminal state ("recovering" only).
	Recovering int `json:"recovering,omitempty"`
}

// degradedReasons evaluates the readiness conditions: the store's
// circuit breaker not closed (persistence is being bypassed),
// quarantined corrupt blobs on disk (operator attention needed), a
// saturated worker pool with job cells still queued (new work will
// wait), and unhealthy cluster workers (nil workers = not
// coordinating): each suspect or down worker gets its own reason with
// the last observed error, and a cluster with no routable worker at
// all reports the in-process degradation explicitly. Pure —
// handleReadyz feeds it live snapshots, tests feed it fixtures.
func degradedReasons(es shift.EngineStats, js jobs.Stats, health shift.StoreHealth, hasHealth bool, workers []cluster.MemberStatus) []string {
	var reasons []string
	if hasHealth {
		switch health.BreakerState {
		case store.BreakerOpen:
			reasons = append(reasons, fmt.Sprintf(
				"store circuit breaker open (%d trips): disk persistence suspended, serving memory-only", health.BreakerTrips))
		case store.BreakerHalfOpen:
			reasons = append(reasons, fmt.Sprintf(
				"store circuit breaker half-open (%d trips): probing disk recovery", health.BreakerTrips))
		}
		if health.Quarantined > 0 {
			reasons = append(reasons, fmt.Sprintf(
				"%d corrupt result blobs quarantined: inspect the store's quarantine/ directory", health.Quarantined))
		}
	}
	if es.Capacity > 0 && es.Inflight >= es.Capacity && js.QueueDepth > 0 {
		reasons = append(reasons, fmt.Sprintf(
			"worker pool saturated: %d/%d slots busy, %d job cells queued", es.Inflight, es.Capacity, js.QueueDepth))
	}
	routable := 0
	for _, m := range workers {
		switch m.State {
		case "up":
			routable++
		default:
			reason := fmt.Sprintf("cluster worker %s %s (%d consecutive failures)", m.Addr, m.State, m.Fails)
			if m.LastErr != "" {
				reason += ": " + m.LastErr
			}
			reasons = append(reasons, reason)
			if m.State == "suspect" {
				routable++
			}
		}
	}
	if len(workers) > 0 && routable == 0 {
		reasons = append(reasons, fmt.Sprintf(
			"all %d cluster workers down: batches executing in-process", len(workers)))
	}
	return reasons
}

// handleReadyz serves GET /v1/readyz: 200 "ready" when the service is
// operating at full fidelity, 503 "draining" once graceful shutdown
// has begun (stop routing here; running cells are finishing), 503
// "degraded" with explicit reasons when it is still serving but
// impaired — the store breaker is open (results are not being
// persisted), corrupt blobs sit in quarantine, or the worker pool is
// saturated with queued work — and 200 "recovering" while jobs
// re-admitted by the journal replay are still re-running (fully
// serving; the counter lets operators watch the backlog clear). Load
// balancers can stop routing to a degraded replica while /v1/healthz
// stays green.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	js := s.jobs.Stats()
	if js.Draining {
		writeJSON(w, http.StatusServiceUnavailable, readyzResponse{Status: "draining"})
		return
	}
	health, hasHealth := s.storeHealth()
	var workers []cluster.MemberStatus
	if s.cluster != nil {
		workers = s.cluster.Members()
	}
	reasons := degradedReasons(s.engine.Stats(), js, health, hasHealth, workers)
	if len(reasons) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, readyzResponse{Status: "degraded", Reasons: reasons})
		return
	}
	if js.Recovering > 0 {
		writeJSON(w, http.StatusOK, readyzResponse{Status: "recovering", Recovering: js.Recovering})
		return
	}
	writeJSON(w, http.StatusOK, readyzResponse{Status: "ready"})
}

// statsResponse is the GET /v1/stats reply.
type statsResponse struct {
	// UptimeSeconds is time since process start.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Requests counts HTTP requests served (all endpoints).
	Requests int64 `json:"requests"`
	// StoreHits/StoreMisses/StoreCells describe the result store.
	StoreHits   int64 `json:"store_hits"`
	StoreMisses int64 `json:"store_misses"`
	StoreCells  int   `json:"store_cells"`
	// Simulated counts cells actually simulated since start.
	Simulated int64 `json:"simulated"`
	// Deduped counts cells that piggybacked on a concurrent identical
	// in-flight simulation.
	Deduped int64 `json:"deduped"`
	// Inflight is the number of simulations running right now.
	Inflight int `json:"inflight"`
	// Batched counts cells executed through the engine's shared-stream
	// batch path (all designs of a workload off one generated stream).
	Batched int64 `json:"batched"`
	// StreamsShared counts trace-stream generations avoided by
	// batching (K-1 per batch of K cells).
	StreamsShared int64 `json:"streams_shared"`
	// JobBatches counts the batches the job workers have started — a
	// job's cells that consume one record stream run as one batch — and
	// JobBatchCells the cells in them: equal counters mean no job shared
	// a stream.
	JobBatches    int64 `json:"job_batches"`
	JobBatchCells int64 `json:"job_batch_cells"`
	// SampledCells counts cells simulated in sampled mode (interval
	// sampling with functional warming) rather than exactly.
	SampledCells int64 `json:"sampled_cells"`
	// CellsPanicked counts simulation panics the engine recovered into
	// per-cell errors.
	CellsPanicked int64 `json:"cells_panicked"`
	// CellsTimedOut counts cells the watchdog abandoned with a timeout
	// error (-cell-timeout).
	CellsTimedOut int64 `json:"cells_timed_out"`
	// StoreErrors counts disk-store IO failures (after retries).
	StoreErrors int64 `json:"store_errors"`
	// StoreQuarantined counts corrupt blobs moved aside into the
	// store's quarantine directory.
	StoreQuarantined int64 `json:"store_quarantined"`
	// StoreBreakerState is the store circuit breaker's state: "closed",
	// "open", or "half-open" (empty for stores without a breaker).
	StoreBreakerState string `json:"store_breaker_state,omitempty"`
	// StoreBreakerTrips counts closed-to-open breaker transitions.
	StoreBreakerTrips int64 `json:"store_breaker_trips"`
	// StoreMemOnlyOps counts lookups/stores served memory-only while
	// the breaker held the disk tier out of the path.
	StoreMemOnlyOps int64 `json:"store_mem_only_ops"`
	// QueueDepth is the number of job cells waiting to run.
	QueueDepth int `json:"queue_depth"`
	// JobsAdmitted/JobsRejected/JobsCancelled count async job
	// submissions by admission outcome and cancellations that took
	// effect.
	JobsAdmitted  int64 `json:"jobs_admitted"`
	JobsRejected  int64 `json:"jobs_rejected"`
	JobsCancelled int64 `json:"jobs_cancelled"`
	// JobCellsRetried counts transiently-failed job cells re-enqueued
	// by the retry policy (-job-retries).
	JobCellsRetried int64 `json:"job_cells_retried"`
	// JobLatencyP50/P90/P99 are submit-to-finish latency percentiles
	// in seconds over recently completed jobs.
	JobLatencyP50 float64 `json:"job_latency_p50_seconds"`
	JobLatencyP90 float64 `json:"job_latency_p90_seconds"`
	JobLatencyP99 float64 `json:"job_latency_p99_seconds"`
	// Draining reports that graceful shutdown has begun; JobsRecovering
	// counts recovered jobs still working toward a terminal state.
	Draining       bool `json:"draining,omitempty"`
	JobsRecovering int  `json:"jobs_recovering,omitempty"`
	// Journal describes the write-ahead job journal (-state-dir only).
	Journal *journalStatsResponse `json:"journal,omitempty"`
	// Recovery reports what the journal replay at startup reconstructed
	// (-state-dir only).
	Recovery *recoveryStatsResponse `json:"recovery,omitempty"`
	// RemoteStoreErrors counts failed operations against the remote
	// blob store (transport errors and bad statuses), when the store's
	// persistent tier is a remote peer (-store-url).
	RemoteStoreErrors int64 `json:"remote_store_errors,omitempty"`
	// Cluster carries the coordinator's routing and worker-health
	// counters; absent when this process is not coordinating.
	Cluster *clusterStatsResponse `json:"cluster,omitempty"`
}

// journalStatsResponse is the "journal" block of GET /v1/stats: the
// write-ahead job journal's footprint and write-failure count.
type journalStatsResponse struct {
	// Records and Bytes describe the journal's current contents.
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
	// Compactions counts snapshot rewrites since the process started.
	Compactions int64 `json:"compactions"`
	// Errors counts journal writes that failed; the affected cells
	// re-run on the next recovery.
	Errors int64 `json:"errors"`
}

// recoveryStatsResponse is the "recovery" block of GET /v1/stats: what
// the journal replay at startup reconstructed.
type recoveryStatsResponse struct {
	// JobsRecovered and JobsTerminal count replayed jobs re-admitted
	// into the queue versus reconstructed already-terminal.
	JobsRecovered int `json:"jobs_recovered"`
	JobsTerminal  int `json:"jobs_terminal"`
	// CellsRestored counts completed cells resolved from the result
	// store without re-simulation; CellsRequeued, cells re-enqueued for
	// execution.
	CellsRestored int `json:"cells_restored"`
	CellsRequeued int `json:"cells_requeued"`
	// TornTailRecords and TornTailBytes report the partial append
	// discarded from the journal at open (the record in flight when the
	// previous process died).
	TornTailRecords int   `json:"torn_tail_records"`
	TornTailBytes   int64 `json:"torn_tail_bytes"`
}

// clusterStatsResponse is the "cluster" block of GET /v1/stats.
type clusterStatsResponse struct {
	// WorkersUp/WorkersSuspect/WorkersDown count workers by health
	// state.
	WorkersUp      int `json:"workers_up"`
	WorkersSuspect int `json:"workers_suspect"`
	WorkersDown    int `json:"workers_down"`
	// BatchesRouted counts batches executed on a worker;
	// BatchesRerouted, attempts re-routed after a transport failure;
	// BatchesHedged, speculative duplicates sent to stragglers'
	// backups; FallbackCells, cells degraded to in-process execution;
	// DispatchErrors, transport-level dispatch failures.
	BatchesRouted   int64 `json:"batches_routed"`
	BatchesRerouted int64 `json:"batches_rerouted"`
	BatchesHedged   int64 `json:"batches_hedged"`
	FallbackCells   int64 `json:"fallback_cells"`
	DispatchErrors  int64 `json:"dispatch_errors"`
}

// handleStats serves GET /v1/stats.
func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	es := s.engine.Stats()
	js := s.jobs.Stats()
	health, _ := s.storeHealth()
	var cl *clusterStatsResponse
	if s.cluster != nil {
		st := s.cluster.Stats()
		cl = &clusterStatsResponse{
			WorkersUp:       st.WorkersUp,
			WorkersSuspect:  st.WorkersSuspect,
			WorkersDown:     st.WorkersDown,
			BatchesRouted:   st.BatchesRouted,
			BatchesRerouted: st.BatchesRerouted,
			BatchesHedged:   st.BatchesHedged,
			FallbackCells:   st.CellsFallback,
			DispatchErrors:  st.DispatchErrors,
		}
	}
	var remoteErrs int64
	if s.remoteErrs != nil {
		remoteErrs = s.remoteErrs()
	}
	var journal *journalStatsResponse
	var recovery *recoveryStatsResponse
	if jst, ok := s.jobs.JournalStats(); ok {
		journal = &journalStatsResponse{
			Records:     jst.Records,
			Bytes:       jst.Bytes,
			Compactions: jst.Compactions,
			Errors:      js.JournalErrors,
		}
		rec := s.jobs.Recovery()
		recovery = &recoveryStatsResponse{
			JobsRecovered:   rec.JobsRecovered,
			JobsTerminal:    rec.JobsTerminal,
			CellsRestored:   rec.CellsRestored,
			CellsRequeued:   rec.CellsRequeued,
			TornTailRecords: rec.TailRecords,
			TornTailBytes:   rec.TailBytes,
		}
	}
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeSeconds:     time.Since(s.started).Seconds(),
		Requests:          s.requests.Load(),
		StoreHits:         es.StoreHits,
		StoreMisses:       es.StoreMisses,
		StoreCells:        es.StoreCells,
		Simulated:         es.Simulated,
		Deduped:           es.Deduped,
		Inflight:          es.Inflight,
		Batched:           es.Batched,
		StreamsShared:     es.StreamsShared,
		JobBatches:        js.Batches,
		JobBatchCells:     js.BatchCells,
		SampledCells:      es.SampledCells,
		CellsPanicked:     es.Panicked,
		CellsTimedOut:     es.TimedOut,
		StoreErrors:       health.Errors,
		StoreQuarantined:  health.Quarantined,
		StoreBreakerState: health.BreakerState,
		StoreBreakerTrips: health.BreakerTrips,
		StoreMemOnlyOps:   health.MemOnlyOps,
		QueueDepth:        js.QueueDepth,
		JobsAdmitted:      js.Admitted,
		JobsRejected:      js.Rejected,
		JobsCancelled:     js.Cancelled,
		JobCellsRetried:   js.Retried,
		JobLatencyP50:     js.LatencyP50,
		JobLatencyP90:     js.LatencyP90,
		JobLatencyP99:     js.LatencyP99,
		Draining:          js.Draining,
		JobsRecovering:    js.Recovering,
		Journal:           journal,
		Recovery:          recovery,
		RemoteStoreErrors: remoteErrs,
		Cluster:           cl,
	})
}

// handleMetrics serves GET /v1/metrics in Prometheus text exposition
// format (version 0.0.4): the job-queue and admission counters, the
// job-latency summary, and the engine/store counters /v1/stats exposes
// as JSON.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	es := s.engine.Stats()
	js := s.jobs.Stats()
	var b strings.Builder
	metric := func(name, typ, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
	}
	metric("shiftd_uptime_seconds", "gauge", "Seconds since process start.", time.Since(s.started).Seconds())
	metric("shiftd_requests_total", "counter", "HTTP requests served (all endpoints).", float64(s.requests.Load()))
	metric("shiftd_jobs_queue_depth", "gauge", "Job cells waiting to run.", float64(js.QueueDepth))
	metric("shiftd_jobs_admitted_total", "counter", "Jobs accepted into the queue.", float64(js.Admitted))
	metric("shiftd_jobs_rejected_total", "counter", "Job submissions refused by admission control or the queue bound.", float64(js.Rejected))
	metric("shiftd_jobs_cancelled_total", "counter", "Jobs whose cancellation took effect.", float64(js.Cancelled))
	fmt.Fprintf(&b, "# HELP shiftd_job_latency_seconds Job submit-to-finish latency.\n# TYPE shiftd_job_latency_seconds summary\n")
	fmt.Fprintf(&b, "shiftd_job_latency_seconds{quantile=\"0.5\"} %g\n", js.LatencyP50)
	fmt.Fprintf(&b, "shiftd_job_latency_seconds{quantile=\"0.9\"} %g\n", js.LatencyP90)
	fmt.Fprintf(&b, "shiftd_job_latency_seconds{quantile=\"0.99\"} %g\n", js.LatencyP99)
	fmt.Fprintf(&b, "shiftd_job_latency_seconds_sum %g\n", js.LatencySum)
	fmt.Fprintf(&b, "shiftd_job_latency_seconds_count %d\n", js.LatencyCount)
	metric("shiftd_store_hits_total", "counter", "Result-store lookup hits.", float64(es.StoreHits))
	metric("shiftd_store_misses_total", "counter", "Result-store lookup misses.", float64(es.StoreMisses))
	metric("shiftd_store_cells", "gauge", "Results currently stored.", float64(es.StoreCells))
	metric("shiftd_cells_simulated_total", "counter", "Cells actually simulated.", float64(es.Simulated))
	metric("shiftd_cells_deduped_total", "counter", "Cells served by a concurrent in-flight simulation.", float64(es.Deduped))
	metric("shiftd_cells_inflight", "gauge", "Simulations running right now.", float64(es.Inflight))
	metric("shiftd_cells_batched_total", "counter", "Cells executed through the shared-stream batch path.", float64(es.Batched))
	metric("shiftd_streams_shared_total", "counter", "Trace-stream generations avoided by batching.", float64(es.StreamsShared))
	metric("shiftd_job_batches_total", "counter", "Batches (a job's cells sharing one record stream) started by job workers.", float64(js.Batches))
	metric("shiftd_job_batch_cells_total", "counter", "Job cells in the batches started by job workers.", float64(js.BatchCells))
	metric("shiftd_cells_sampled_total", "counter", "Cells simulated in sampled mode.", float64(es.SampledCells))
	metric("shiftd_cells_panicked_total", "counter", "Simulation panics recovered into per-cell errors.", float64(es.Panicked))
	metric("shiftd_cells_timed_out_total", "counter", "Cells abandoned by the watchdog with a timeout error.", float64(es.TimedOut))
	metric("shiftd_job_cells_retried_total", "counter", "Transiently-failed job cells re-enqueued by the retry policy.", float64(js.Retried))
	metric("shiftd_draining", "gauge", "1 while graceful shutdown is draining running cells, 0 otherwise.", boolGauge(js.Draining))
	metric("shiftd_jobs_recovering", "gauge", "Recovered jobs still working toward a terminal state.", float64(js.Recovering))
	if jst, ok := s.jobs.JournalStats(); ok {
		rec := s.jobs.Recovery()
		metric("shiftd_journal_records", "gauge", "Records currently in the write-ahead job journal.", float64(jst.Records))
		metric("shiftd_journal_bytes", "gauge", "Size of the write-ahead job journal in bytes.", float64(jst.Bytes))
		metric("shiftd_journal_compactions_total", "counter", "Journal snapshot rewrites since process start.", float64(jst.Compactions))
		metric("shiftd_journal_errors_total", "counter", "Journal writes that failed (affected cells re-run on recovery).", float64(js.JournalErrors))
		metric("shiftd_recovery_jobs_recovered", "gauge", "Incomplete jobs re-admitted by the journal replay at startup.", float64(rec.JobsRecovered))
		metric("shiftd_recovery_jobs_terminal", "gauge", "Jobs replayed directly to a terminal state at startup.", float64(rec.JobsTerminal))
		metric("shiftd_recovery_cells_restored", "gauge", "Journaled completed cells restored from the result store without re-simulation.", float64(rec.CellsRestored))
		metric("shiftd_recovery_cells_requeued", "gauge", "Cells re-enqueued for execution by the journal replay.", float64(rec.CellsRequeued))
		metric("shiftd_recovery_torn_tail_records", "gauge", "Torn journal records discarded at startup.", float64(rec.TailRecords))
	}
	if health, ok := s.storeHealth(); ok {
		metric("shift_store_errors_total", "counter", "Disk-store IO failures after retries.", float64(health.Errors))
		metric("shiftd_store_quarantined", "gauge", "Corrupt blobs moved into the quarantine directory.", float64(health.Quarantined))
		metric("shiftd_store_breaker_open", "gauge", "1 while the store circuit breaker is open, 0 otherwise.",
			boolGauge(health.BreakerState == store.BreakerOpen))
		metric("shiftd_store_breaker_trips_total", "counter", "Closed-to-open store breaker transitions.", float64(health.BreakerTrips))
		metric("shiftd_store_mem_only_total", "counter", "Store operations served memory-only while the breaker was open.", float64(health.MemOnlyOps))
	}
	if s.remoteErrs != nil {
		metric("shiftd_remote_store_errors_total", "counter", "Failed operations against the remote blob store.", float64(s.remoteErrs()))
	}
	if s.cluster != nil {
		st := s.cluster.Stats()
		metric("shiftd_cluster_workers_up", "gauge", "Cluster workers in the up state.", float64(st.WorkersUp))
		metric("shiftd_cluster_workers_suspect", "gauge", "Cluster workers in the suspect state.", float64(st.WorkersSuspect))
		metric("shiftd_cluster_workers_down", "gauge", "Cluster workers in the down state.", float64(st.WorkersDown))
		metric("shiftd_cluster_batches_routed_total", "counter", "Batches executed on a cluster worker.", float64(st.BatchesRouted))
		metric("shiftd_cluster_batches_rerouted_total", "counter", "Batch attempts re-routed after a worker failure.", float64(st.BatchesRerouted))
		metric("shiftd_cluster_batches_hedged_total", "counter", "Speculative duplicate dispatches to stragglers' backups.", float64(st.BatchesHedged))
		metric("shiftd_cluster_fallback_cells_total", "counter", "Cells degraded to in-process execution.", float64(st.CellsFallback))
		metric("shiftd_cluster_dispatch_errors_total", "counter", "Transport-level batch dispatch failures.", float64(st.DispatchErrors))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String())
}

// boolGauge renders a condition as a 0/1 Prometheus gauge value.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// await runs fn on its own goroutine and waits for its result or for
// the request context to end, whichever comes first. An abandoned
// request stops occupying its handler immediately, but the simulation
// is not cancelled: it runs to completion on the engine and seeds the
// store, so a retry of the same request hits instead of recomputing.
func await[T any](ctx context.Context, fn func() (T, error)) (T, error) {
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := fn()
		ch <- outcome{v, err}
	}()
	select {
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	case o := <-ch:
		return o.v, o.err
	}
}

// writeRunError maps a simulation failure to a response: a request
// that ran out of deadline gets 504, a client disconnect gets 503
// (nobody is reading anyway, but the status keeps logs honest), and
// everything else is a 500 with the engine's error. In both timeout
// and disconnect cases the simulation continues and seeds the store.
func writeRunError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(r.Context().Err(), context.DeadlineExceeded) {
		writeError(w, http.StatusGatewayTimeout, errors.New("request deadline exceeded; simulation continues and will be served from the store"))
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(r.Context().Err(), context.Canceled) {
		writeError(w, http.StatusServiceUnavailable, errors.New("request abandoned; simulation continues and will be served from the store"))
		return
	}
	writeError(w, http.StatusInternalServerError, err)
}

// writeJSON writes v as a JSON response. Encoding failures after the
// header is committed cannot change the status, but they are logged
// rather than dropped.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("shiftd: encoding %d response: %v", code, err)
	}
}

// writeError writes a JSON error envelope.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
