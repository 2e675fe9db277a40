package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"shift"
)

// This file is the worker half of the fabric: the wire protocol of
// POST /v1/batch and the handler that executes a routed batch on the
// worker's local engine. The worker is deliberately dumb — it runs
// whatever whole batch arrives and answers per-cell — because all
// placement, failover, and merge intelligence lives in the
// coordinator. Running through the local engine (never bare
// shift.RunBatch) gives every routed batch the worker's store
// memoization, in-flight deduplication, and containment for free, so a
// re-routed or re-dispatched batch whose cells were already computed
// here is served from the store instead of re-simulated.

// BatchRequest is the wire form of POST /v1/batch: one shared-stream
// batch of fully-resolved simulation configs. Configs travel as their
// exact JSON encoding (all fields exported; floats round-trip
// bit-exactly), so the worker computes the same content-address keys
// as the coordinator.
type BatchRequest struct {
	// Cells is the batch, in coordinator cell order. Members of one
	// request normally share a StreamKey (that is the routing unit),
	// but the worker does not require it — the engine re-partitions.
	Cells []shift.Config `json:"cells"`
	// Specs maps each spec workload ID the cells name to its canonical
	// document (shift.SpecCanonical): only the coordinator's process has
	// compiled it, so the worker registers it from here, for a cell that
	// passes validation.
	Specs map[string]json.RawMessage `json:"specs,omitempty"`
}

// batchSpecs returns the canonical document of every registered spec
// workload cfgs name, keyed by ID. An ID this process has not registered
// travels without its document, and the worker reports it as it would
// any unknown workload.
func batchSpecs(cfgs []shift.Config) map[string]json.RawMessage {
	specs := make(map[string]json.RawMessage)
	for _, cfg := range cfgs {
		if doc, err := shift.SpecCanonical(cfg.Workload); err == nil {
			specs[cfg.Workload] = doc
		}
	}
	return specs
}

// BatchResponse is the wire form of a POST /v1/batch reply: one entry
// per requested cell, positionally aligned with the request.
type BatchResponse struct {
	// Results holds one outcome per request cell.
	Results []BatchResult `json:"results"`
}

// BatchResult is one cell's outcome within a BatchResponse.
type BatchResult struct {
	// Key is the cell's content address (shift.Config.Key), computed on
	// the worker; the coordinator cross-checks it against its own.
	Key string `json:"key"`
	// Result is the simulation result (success only).
	Result *shift.RunResult `json:"result,omitempty"`
	// Error is the cell's raw simulation error (failure only), without
	// the engine's "cell <label>:" prefix — the coordinator's engine
	// re-attaches its own label, so clustered error messages match
	// single-host ones.
	Error string `json:"error,omitempty"`
}

// Worker executes routed batches on a local engine. It serves POST
// /v1/batch (HandleBatch); the blob tier and health probes are served
// by the surrounding process (shiftd mounts /v1/blobs and /v1/healthz
// alongside).
type Worker struct {
	engine *shift.Engine
}

// NewWorker returns a worker executing batches on engine.
func NewWorker(engine *shift.Engine) *Worker {
	return &Worker{engine: engine}
}

// HandleBatch serves POST /v1/batch: decode the batch, check each cell
// with shift.Config.Validate (shift.WireSpec.Cell against the batch's
// compiled document, for a cell whose spec the batch carries), execute
// the cells that pass on the local engine, answer per-cell. A refused
// cell is answered with the error a local Run of it reports and is never
// simulated, so a peer cannot make the worker run — or allocate tables
// for — a cell shiftd's wire would refuse. The engine reports every other cell's own result or error (a
// failing batch is isolated member by member), so one bad cell costs its
// neighbors nothing.
func (w *Worker) HandleBatch(rw http.ResponseWriter, r *http.Request) {
	req, ok := decodeBatch(rw, r)
	if !ok {
		return
	}

	resp := BatchResponse{Results: make([]BatchResult, len(req.Cells))}
	ks := make([]shift.KeyedConfig, 0, len(req.Cells))
	at := make([]int, 0, len(req.Cells)) // ks[j] is cell at[j]
	for i, cfg := range req.Cells {
		k := shift.KeyConfig(cfg)
		resp.Results[i].Key = k.Key()
		var err error
		if ws, ok := req.specs[cfg.Workload]; ok {
			// The batch carries the cell's spec: it is registered only
			// for a cell that passes, as shiftd's inline spec cells are.
			_, err = ws.Cell(cfg)
		} else {
			err = cfg.Validate()
		}
		if err != nil {
			resp.Results[i].Error = err.Error()
			continue
		}
		ks = append(ks, k)
		at = append(at, i)
	}
	results, errs := w.engine.RunKeyed(ks)
	for j, i := range at {
		if errs[j] != nil {
			// Unwrap drops the engine's "cell <label>: " annotation —
			// whichever caller's label it carries — so the raw simulation
			// error travels the wire and the coordinator's engine attaches
			// its own label exactly once.
			resp.Results[i].Error = errors.Unwrap(errs[j]).Error()
			continue
		}
		resp.Results[i].Result = &results[j]
	}
	rw.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(rw).Encode(resp); err != nil {
		// The header is committed; nothing to do but note it — the
		// coordinator sees a truncated body and retries elsewhere.
		return
	}
}

// maxBatchBody bounds the bytes HandleBatch reads of a request body.
const maxBatchBody = 16 << 20

// decodedBatch is a POST /v1/batch request with each of its spec
// documents compiled once, keyed by ID.
type decodedBatch struct {
	BatchRequest
	specs map[string]shift.WireSpec
}

// decodeBatch is HandleBatch's side of the trust boundary: it reads at
// most maxBatchBody bytes of r's body (and the one that proves a longer
// body too long), decodes a non-empty batch and compiles each of its spec
// documents once, as shiftd does an inline spec cell's (no trace replay),
// registering none: HandleBatch registers a document for a cell that
// passes. A body that does not decode, holds no cell, or has a document
// that does not compile to its ID is answered here — 400 with an error
// line — and ok is false.
func decodeBatch(rw http.ResponseWriter, r *http.Request) (req decodedBatch, ok bool) {
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxBatchBody)).Decode(&req); err != nil {
		http.Error(rw, fmt.Sprintf("decoding batch: %v", err), http.StatusBadRequest)
		return req, false
	}
	if len(req.Cells) == 0 {
		http.Error(rw, "empty batch", http.StatusBadRequest)
		return req, false
	}
	req.specs = make(map[string]shift.WireSpec, len(req.Specs))
	for id, doc := range req.Specs {
		ws, err := shift.CompileWireSpec(doc)
		if err == nil && ws.ID() != id {
			err = fmt.Errorf("the document compiles to %q", ws.ID())
		}
		if err != nil {
			http.Error(rw, fmt.Sprintf("specs[%q]: %v", id, err), http.StatusBadRequest)
			return req, false
		}
		req.specs[id] = ws
	}
	return req, true
}

// BatchError reports a batch whose worker answered definitively — the
// dispatch succeeded but one or more cells failed in simulation. It is
// never transient: re-routing re-runs the same deterministic failure,
// so the coordinator surfaces it instead, and the engine's per-cell
// fallback then reproduces each member's exact error.
type BatchError struct {
	// Cells maps batch position to the worker's raw error message.
	Cells map[int]string
}

// Error summarizes the failing cells by batch position.
func (e *BatchError) Error() string {
	return fmt.Sprintf("cluster: %d of a batch's cells failed on the worker", len(e.Cells))
}

// errDispatch marks transport-level dispatch failures (unreachable
// worker, timeout, bad status, undecodable reply) — the re-routable
// class, transient to retry.Transient, as opposed to a BatchError.
var errDispatch error = dispatchError{}

type dispatchError struct{}

func (dispatchError) Error() string   { return "cluster: dispatch failed" }
func (dispatchError) Transient() bool { return true }
