package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shift"
	"shift/internal/cluster"
	"shift/internal/jobs"
)

// server wires the HTTP API to one shared engine and result store. Every
// cell a client sends — a single run, a grid, or an async job — is a job
// of the job manager, which runs it on the engine; figures run their
// drivers on the same engine. So concurrent requests share simulations
// through the engine's in-flight deduplication and the store.
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
	// store's raw blob tier under /v1/blobs.
	cluster *cluster.Coordinator
	worker  *cluster.Worker
	blobs   http.Handler

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
	mux.HandleFunc("POST /v1/run", s.handleSync(true))
	mux.HandleFunc("POST /v1/grid", s.handleSync(false))
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

// decodeBody decodes the request body as JSON into dst under the
// server's body-size limit, writing the error response itself (400 on
// malformed JSON, 413 when the body exceeds the limit) and reporting
// whether decoding succeeded.
//
// The answer is json.Decoder's: the first JSON value decoded, whatever
// follows it ignored, a read error (the limit) reported only if the value
// is still incomplete when it comes. The body is read into a recycled
// buffer first and, in the common case of a body that is one well-formed
// value, json.Unmarshal decodes it, which costs no decoder and no buffer
// of its own; a grid's cells slice is sized from the body up front, up to
// presizedCells. Any other body (trailing data, a body over the limit) is
// replayed through a json.Decoder, since Unmarshal's answer for it
// differs from the decoder's.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	buf := bodyBuffers.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		bodyBuffers.Put(buf)
	}()
	_, rerr := buf.ReadFrom(r.Body)
	body := buf.Bytes()
	err := rerr
	if rerr == nil {
		if req, ok := dst.(*gridRequest); ok {
			// Every cell names its design, so the count is the cell count
			// or above it. Sizing the slice once spares a six-cell job three
			// reflective regrowths, ≈ 1.7 KB: without it the job overruns
			// TestReplayedJobAllocs' 10 KB budget. The count is the client's
			// to inflate, so it is capped.
			req.Cells = make([]cellSpec, 0, min(bytes.Count(body, []byte(`"design"`)), presizedCells))
		}
		err = json.Unmarshal(body, dst)
	}
	var syntax *json.SyntaxError
	if rerr != nil || errors.As(err, &syntax) {
		var rd io.Reader = bytes.NewReader(body)
		if rerr != nil {
			rd = io.MultiReader(rd, errReader{rerr})
		}
		err = json.NewDecoder(rd).Decode(dst)
	}
	if err != nil {
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

// presizedCells caps the cells decodeBody makes room for before decoding,
// the default -job-burst: a body repeating "design" could otherwise ask
// for a slice of any size (176 B a cell) in one cell's worth of bytes.
const presizedCells = 64

// bodyBuffers recycles the buffers decodeBody reads bodies into.
var bodyBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

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

// config resolves the wire cell against the server's base options and
// checks the result with shift.Config.Validate, the simulator's own rules,
// naming the offending wire field — so clients get a 400 up front instead
// of a misleading 500 deep inside a simulation. The names a cell carries
// (design, core type, an inline spec) are resolved here; the workload,
// the ranges and a mix's core count are Validate's.
func (c cellSpec) config(base shift.Options) (shift.Config, error) {
	if c.Workload == "" && len(c.Spec) == 0 {
		return shift.Config{}, errors.New("missing \"workload\" (or inline \"spec\")")
	}
	if c.Workload != "" && len(c.Spec) > 0 {
		return shift.Config{}, errors.New("\"workload\" and \"spec\" are mutually exclusive")
	}
	if c.Design == "" {
		return shift.Config{}, errors.New("missing \"design\"")
	}
	cfg := shift.Config{
		Workload:        c.Workload,
		CoreType:        base.CoreType,
		Cores:           base.Cores,
		HistEntries:     c.HistEntries,
		PredictionOnly:  c.PredictionOnly,
		CommonalityMode: c.CommonalityMode,
		ElimProb:        c.ElimProb,
		WarmupRecords:   base.WarmupRecords,
		MeasureRecords:  base.MeasureRecords,
		Seed:            base.Seed,
		Sampling: shift.Sampling{
			Period:          c.SamplePeriod,
			IntervalRecords: c.SampleInterval,
			WarmupFraction:  c.SampleWarmup,
			Confidence:      c.SampleConfidence,
		},
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
	var err error
	if cfg.Design, err = shift.ParseDesign(c.Design); err != nil {
		return shift.Config{}, fmt.Errorf("\"design\": %w", err)
	}
	if c.CoreType != "" {
		if cfg.CoreType, err = shift.ParseCoreType(c.CoreType); err != nil {
			return shift.Config{}, fmt.Errorf("\"core_type\": %w", err)
		}
	}
	if len(c.Spec) > 0 {
		// The inline spec becomes the cell's workload: its
		// content-addressed ID, like any workload name, registered only
		// when the cell is accepted. Identical spec content registers
		// once, so repeated submissions memoize and batch against each
		// other.
		cfg, err = shift.LoadSpecCell(c.Spec, cfg)
	} else {
		err = cfg.Validate()
	}
	if err != nil {
		var fe *shift.FieldError
		if errors.As(err, &fe) {
			err = fmt.Errorf("%q %s", fe.Field, fe.Msg)
		}
		return shift.Config{}, err
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

// gridRequest is the POST /v1/grid and POST /v1/jobs body.
type gridRequest struct {
	// Cells is the experiment grid; duplicates are simulated once.
	Cells []cellSpec `json:"cells"`
}

// gridResponse is the POST /v1/grid reply: one entry per requested
// cell, in request order (the job's cell-keyed fan-in — never
// completion order).
type gridResponse struct {
	Results []*gridCellResult `json:"results"`
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
			label = shift.WorkloadDisplayName(cfg.Workload) + "/" + cfg.Design.String()
		}
		cells[i] = shift.Cell{Label: label, Config: cfg}
	}
	return cells, nil
}

// handleSync returns the handler of POST /v1/run (one cell in, one
// result out; run set) or POST /v1/grid (a cell list in, results in cell
// order out), a run being a grid of one. Either call is a job: submitted
// as POST /v1/jobs submits one, then waited for. A job that fails answers
// 500 with its lowest-index failed cell's error, and one cancelled 503.
// A request that ends first — its client gone or its deadline passed —
// leaves the job running, so its results still seed the store.
func (s *server) handleSync(run bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req gridRequest
		if run {
			req.Cells = make([]cellSpec, 1)
			if !s.decodeBody(w, r, &req.Cells[0]) {
				return
			}
		} else if !s.decodeBody(w, r, &req) {
			return
		}
		j, ok := s.submit(w, r, req.Cells, true)
		if !ok {
			return
		}
		switch err := s.wait(r.Context(), j); {
		case errors.Is(err, jobs.ErrDraining):
			s.writeDraining(w)
			return
		case err != nil:
			writeRunError(w, r, err)
			return
		}
		st := j.Snapshot()
		switch st.State {
		case jobs.StateFailed:
			for _, msg := range st.CellErrs {
				if msg != "" {
					writeError(w, http.StatusInternalServerError, errors.New(msg))
					return
				}
			}
		case jobs.StateCancelled:
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("job %s was cancelled", st.ID))
			return
		}
		results := jobStatus(st).Results
		if run {
			writeJSON(w, http.StatusOK, runResponse{Key: results[0].Key, Result: results[0].Result})
			return
		}
		writeJSON(w, http.StatusOK, gridResponse{Results: results})
	}
}

// wait blocks until j is terminal. It returns the context's error when
// the request ends first, and jobs.ErrDraining when a drain begins first:
// the drain leaves queued cells queued, so the job may not finish in this
// process.
func (s *server) wait(ctx context.Context, j *jobs.Job) error {
	for {
		_, terminal, changed := j.EventsSince(math.MaxInt)
		if terminal {
			return nil
		}
		select {
		case <-changed:
		case <-s.jobs.Draining():
			return jobs.ErrDraining
		case <-ctx.Done():
			return ctx.Err()
		}
	}
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
// instead of waiting for the results it answers 202 with a job id.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req gridRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	j, ok := s.submit(w, r, req.Cells, false)
	if !ok {
		return
	}
	writeJSON(w, http.StatusAccepted, jobSubmitResponse{
		ID:        j.ID(),
		State:     string(jobs.StateQueued),
		Cells:     len(req.Cells),
		StatusURL: "/v1/jobs/" + j.ID(),
		StreamURL: "/v1/jobs/" + j.ID() + "/stream",
	})
}

// submit resolves a decoded cell list and submits it as a job of the
// request's client, the one way in for cells: the manager charges the
// client's token bucket one token per cell, bounds the queue, refuses
// during a drain and journals the job. It writes any refusal itself — 400
// for a cell that does not resolve or a job over the burst capacity, 429
// + Retry-After when the client's bucket is dry, 503 + Retry-After when
// the queue is full or shutdown has begun — and reports whether the job
// was accepted. A sync job, whose caller waits for it and answers no ID,
// leaves the job registry when it is terminal.
func (s *server) submit(w http.ResponseWriter, r *http.Request, specs []cellSpec, sync bool) (*jobs.Job, bool) {
	if len(specs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty \"cells\""))
		return nil, false
	}
	cells, err := s.cellsFromSpecs(specs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	var j *jobs.Job
	if sync {
		j, err = s.jobs.SubmitSyncFrom(clientKey(r), cells)
	} else {
		j, err = s.jobs.SubmitFrom(clientKey(r), cells)
	}
	var ae *jobs.AdmissionError
	switch {
	case err == nil:
		return j, true
	case errors.As(err, &ae) && ae.Never:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("job of %d cells exceeds the admission burst capacity (see -job-burst)", len(cells)))
	case ae != nil:
		w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(ae.RetryAfter)))
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("admission bucket empty; retry in %s", ae.RetryAfter))
	case errors.Is(err, jobs.ErrDraining):
		s.writeDraining(w)
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
	return nil, false
}

// writeDraining answers a submission during graceful shutdown, and a
// synchronous call whose job the drain left unfinished: a clean 503 with
// an integer Retry-After covering the drain grace, so clients and proxies
// see an orderly refusal — never a connection reset — and know when a
// restarted or replacement process can take the retry.
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
// cell completes, and once the state is "done" the array is what the
// synchronous POST /v1/grid answers as "results" for the same cells.
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
// the reply is the job's status after the cancellation request. When the
// journal refuses the cancellation the job runs on, and the reply is 503.
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
	case err != nil:
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeJSON(w, http.StatusOK, jobStatus(j.Snapshot()))
	}
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
//
// The response is flushed only before the handler blocks: after the
// ready events (or heartbeat) of a job still running, so a stream opened
// before any cell has finished still sees its 200 at once. The last
// events, up to the end event, are not flushed by hand: net/http sends
// them with the end of the response, one write for a job already
// finished. Such a stream never waits, so it starts no heartbeat ticker.
func (s *server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	w.Header()["Content-Type"] = ndjsonType
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	line := lineBuffers.Get().(*[]byte)
	defer lineBuffers.Put(line)
	beat := s.streamHeartbeat
	if beat <= 0 {
		beat = 15 * time.Second
	}
	var ticker *time.Ticker
	defer func() {
		if ticker != nil {
			ticker.Stop()
		}
	}()
	var buf [8]jobs.Event
	n := 0
	for {
		evs, terminal, changed := j.AppendEventsSince(buf[:0], n)
		for _, ev := range evs {
			if err := writeStreamEvent(w, enc, line, ev); err != nil {
				log.Printf("shiftd: streaming job %s: %v", j.ID(), err)
				return
			}
		}
		n += len(evs)
		if terminal {
			return
		}
		if ticker == nil {
			ticker = time.NewTicker(beat)
		} else if len(evs) > 0 {
			ticker.Reset(beat)
		}
		if fl != nil {
			fl.Flush() // a no-op when nothing is buffered
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
		}
	}
}

// writeStreamEvent writes ev's NDJSON line: a successful cell's framed in
// line around its result's bytes, any other through enc.
func writeStreamEvent(w io.Writer, enc *json.Encoder, line *[]byte, ev jobs.Event) error {
	if ev.Type == jobs.EventCell && ev.Err == "" {
		b, err := appendCellLine((*line)[:0], ev.Index, ev.Label, ev.Key, ev.Result, ev.ResultJSON())
		*line = b
		if err == nil {
			_, err = w.Write(b)
		}
		return err
	}
	we := jobStreamEvent{Type: ev.Type}
	switch ev.Type {
	case jobs.EventCell:
		idx := ev.Index
		we.Index = &idx
		we.Label = ev.Label
		we.Key = ev.Key
		we.Error = ev.Err
	case jobs.EventEnd:
		we.State = string(ev.State)
	}
	return enc.Encode(we)
}

// handleFigure serves GET /v1/figures/{name}: the named experiment
// driver's rendered output as text/plain — byte-identical to `shiftsim
// -experiment {name}` at the same options, since both dispatch through
// shift.RunExperiment. Query parameters quick, workloads (comma-
// separated), cores, seed, warmup, measure, sample (a sampling period;
// the figure is then regenerated in sampled mode, trading exactness
// for speed), sample_interval, sample_warm, and sample_confidence
// override the server's base options per request. The drivers validate
// their options before they run a cell, so a *shift.FieldError is the
// client's: a 400 naming the query parameter at fault.
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
	var fe *shift.FieldError
	switch {
	case errors.Is(err, shift.ErrUnknownExperiment):
		writeError(w, http.StatusNotFound, err)
		return
	case errors.As(err, &fe):
		writeError(w, http.StatusBadRequest, fmt.Errorf("%s: %s", queryField(fe.Field), fe.Msg))
		return
	case err != nil:
		writeRunError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, out)
}

// optionsFromQuery parses the per-request query overrides onto the base
// options and routes the work through the shared engine. A value that
// does not parse is refused here; the drivers judge the rest.
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
	// All figure cells run on the shared engine: one store, one
	// in-flight table, across every concurrent request.
	o.Engine = s.engine
	return o, nil
}

// queryName maps the canonical (JSON wire) field names of
// shift.Config.Validate's refusals to the figure endpoint's
// query-parameter spelling.
var queryName = map[string]string{
	"workload":        "workloads",
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

// handleHealthz serves GET /v1/healthz.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleCluster serves GET /v1/cluster (coordinator only): the
// /v1/stats cluster object — worker-health and routing counters — plus
// the membership view with per-worker health under "workers".
func (s *server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	sn := &snapshot{cluster: s.cluster.Stats(), blocks: clusterBlock}
	doc := sn.statsDoc()["cluster"].(map[string]any)
	doc["workers"] = s.cluster.Members()
	writeJSON(w, http.StatusOK, doc)
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

// handleReadyz serves GET /v1/readyz from a readiness snapshot: the
// statuses are readyzResponse's, the degradations degradedReasons'.
// Load balancers can stop routing to a degraded or draining replica
// while /v1/healthz stays green.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	sn := s.readiness()
	if sn.jobs.Draining {
		writeJSON(w, http.StatusServiceUnavailable, readyzResponse{Status: "draining"})
		return
	}
	if reasons := degradedReasons(sn); len(reasons) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, readyzResponse{Status: "degraded", Reasons: reasons})
		return
	}
	if sn.jobs.Recovering > 0 {
		writeJSON(w, http.StatusOK, readyzResponse{Status: "recovering", Recovering: sn.jobs.Recovering})
		return
	}
	writeJSON(w, http.StatusOK, readyzResponse{Status: "ready"})
}

// handleStats serves GET /v1/stats: every row of the counter table
// (counters.go) under its path, as JSON.
func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshot().statsDoc())
}

// handleMetrics serves GET /v1/metrics: the same rows in Prometheus
// text exposition format (version 0.0.4).
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, s.snapshot().exposition())
}

// await runs fn — a figure driver — on its own goroutine and waits for
// its result or for the request context to end, whichever comes first.
// An abandoned request stops occupying its handler immediately, but the
// simulation is not cancelled: it runs to completion on the engine and
// seeds the store, so a retry of the same request hits instead of
// recomputing.
func await(ctx context.Context, fn func() (string, error)) (string, error) {
	type outcome struct {
		v   string
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := fn()
		ch <- outcome{v, err}
	}()
	select {
	case <-ctx.Done():
		return "", ctx.Err()
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
	w.Header()["Content-Type"] = jsonType
	w.WriteHeader(code)
	// What a json.Encoder with a two-space indent writes, without the
	// encoder's indent buffer growing from nothing on every response.
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Printf("shiftd: encoding %d response: %v", code, err)
		return
	}
	w.Write(append(b, '\n'))
}

// The Content-Type values, each one shared slice: assigned to a response
// header, not Set into it, they cost no allocation.
var (
	jsonType   = []string{"application/json"}
	ndjsonType = []string{"application/x-ndjson"}
)

// writeError writes a JSON error envelope.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
