package jobs

import (
	"encoding/json"
	"fmt"
	"time"

	"shift"
	"shift/internal/wal"
)

// This file is the durability seam of the job subsystem: the Entry
// record schema the manager journals, the Journal interface it
// journals through, and the write-ahead-log implementation (OpenWAL)
// shiftd plugs in under -state-dir. The manager journals intent and
// outcome — submission, per-cell completion, cancellation,
// finalization — never results: cell results are content-addressed in
// the ResultStore, so recovery resolves completed cells by key and the
// journal stays small and append-cheap.

// Entry op codes. A job's journaled life is one opSubmit, zero or more
// opCell entries in completion order, at most one opCancel, and one
// opEnd; opSnap folds that whole history into a single record during
// compaction, and opLastID keeps the ID of a job no snapshot holds.
const (
	// opSubmit records an admitted job: id, client, creation time, and
	// every cell as its canonical Config JSON (plus the canonical spec
	// document for spec-compiled workloads, so replay can re-register
	// the spec in a fresh process).
	opSubmit = "submit"
	// opCell records one cell's terminal outcome: its index and, for a
	// failure, the error message. Success carries no result — the
	// result lives in the store under the cell's content address.
	opCell = "cell"
	// opCancel records a cancellation that took effect.
	opCancel = "cancel"
	// opEnd records a job reaching a terminal state. Replay derives the
	// state from the cell ops (the entry is advisory), so a crash
	// between the last opCell and its opEnd loses nothing.
	opEnd = "end"
	// opSnap is a compacted job: submission, completion history,
	// cancellation flag, and terminal state in one record. Replay
	// expands it to the primitive ops.
	opSnap = "snap"
	// opLastID records the highest job ID issued when its job has left
	// the registry, so a replay issues no ID at or below it again.
	opLastID = "last-id"
)

// EntryCell is one cell of an opSubmit/opSnap entry: the label plus
// the full Config in its exact JSON encoding, which round-trips keys
// bit-identically (the cluster wire codec contract), so a replayed
// cell resolves the same content address it was submitted under.
type EntryCell struct {
	// Label names the cell in responses and diagnostics.
	Label string `json:"label,omitempty"`
	// Config is the resolved simulation configuration.
	Config shift.Config `json:"config"`
	// Spec is the canonical document of a spec-compiled workload
	// (Config.Workload "spec:..."), re-registered at replay so the ID
	// resolves in the recovered process. Empty for catalog workloads.
	Spec json.RawMessage `json:"spec,omitempty"`
}

// CellOp is one completed cell inside an opSnap entry.
type CellOp struct {
	// Cell is the cell's index in the submitted job.
	Cell int `json:"cell"`
	// Err is the failure message; empty means the cell succeeded.
	Err string `json:"err,omitempty"`
}

// Entry is one journal record. Which fields are meaningful depends on
// Op; unused fields stay zero and are omitted from the JSON.
type Entry struct {
	// Op is the record type (opSubmit, opCell, opCancel, opEnd, opSnap,
	// opLastID).
	Op string `json:"op"`
	// Job is the job ID the record belongs to (opLastID: the ID it
	// records).
	Job string `json:"job"`
	// Client is the admission-control client key (opSubmit/opSnap).
	Client string `json:"client,omitempty"`
	// Created is the job's creation time (opSubmit/opSnap).
	Created time.Time `json:"created,omitempty"`
	// Cells is the submitted cell list (opSubmit/opSnap).
	Cells []EntryCell `json:"cells,omitempty"`
	// Cell is the completed cell's index (opCell).
	Cell int `json:"cell,omitempty"`
	// Err is the completed cell's failure message (opCell).
	Err string `json:"err,omitempty"`
	// Cancelled marks a job whose cancellation took effect (opSnap).
	Cancelled bool `json:"cancelled,omitempty"`
	// Sync marks a job whose submitter waited for it (opSubmit/opSnap;
	// see Manager.SubmitSyncFrom): replay drops it once it is terminal.
	Sync bool `json:"sync,omitempty"`
	// State is the job's terminal state (opEnd; opSnap when terminal).
	State State `json:"state,omitempty"`
	// Ops is the completion history in completion order (opSnap).
	Ops []CellOp `json:"ops,omitempty"`
}

// JournalStats is a point-in-time snapshot of a journal's footprint,
// surfaced through shiftd's /v1/stats and /v1/metrics.
type JournalStats struct {
	// Records is the number of records currently in the journal.
	Records int
	// Bytes is the journal's current size on disk.
	Bytes int64
	// TailRecords reports the torn tail discarded when the journal was
	// opened (at most one record — the append in flight when the
	// previous process died).
	TailRecords int
	// TailBytes is the size of that discarded tail.
	TailBytes int64
	// Compactions counts snapshot rewrites since open.
	Compactions int64
}

// Journal persists the manager's state transitions. Append must be
// durable when it returns (a journaled record survives process death);
// Compact atomically replaces the journal's contents with a snapshot.
// Implementations are safe for concurrent use; the manager may append
// from several workers at once.
type Journal interface {
	// Replay returns the entries found when the journal was opened, in
	// append order. The manager calls it once, before scheduling work.
	Replay() ([]Entry, error)
	// Append durably adds one entry.
	Append(Entry) error
	// Compact atomically replaces the journal with the snapshot
	// entries; the manager appends nothing while it runs.
	Compact([]Entry) error
	// Stats reports the journal's current footprint.
	Stats() JournalStats
	// Close releases the journal. Appends after Close fail.
	Close() error
}

// walJournal is the production Journal: Entry records as JSON over an
// append-only wal.Log with per-record CRC-32C footers.
type walJournal struct {
	log      *wal.Log
	replayed []Entry
}

// OpenWAL opens (creating if absent) the write-ahead journal at path
// and decodes its records. A torn tail — the append in flight when the
// previous process died — is discarded and reported through Stats; a
// corrupt interior record fails loudly here (a wal corruption error)
// rather than silently dropping journaled jobs.
func OpenWAL(path string) (Journal, error) {
	log, recs, _, err := wal.Open(path)
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, len(recs))
	for i, rec := range recs {
		var e Entry
		if err := json.Unmarshal(rec, &e); err != nil {
			log.Close()
			return nil, fmt.Errorf("jobs: journal %s record %d: %w", path, i, err)
		}
		entries = append(entries, e)
	}
	return &walJournal{log: log, replayed: entries}, nil
}

// Replay returns the entries decoded at open.
func (w *walJournal) Replay() ([]Entry, error) { return w.replayed, nil }

// Append marshals and durably appends one entry.
func (w *walJournal) Append(e Entry) error {
	rec, err := json.Marshal(e)
	if err != nil {
		return err
	}
	return w.log.Append(rec)
}

// Compact atomically replaces the journal with the snapshot entries.
func (w *walJournal) Compact(entries []Entry) error {
	recs := make([][]byte, len(entries))
	for i, e := range entries {
		rec, err := json.Marshal(e)
		if err != nil {
			return err
		}
		recs[i] = rec
	}
	return w.log.Rewrite(recs)
}

// Stats reports the journal's footprint.
func (w *walJournal) Stats() JournalStats {
	tail := w.log.TailDiscarded()
	return JournalStats{
		Records:     w.log.Records(),
		Bytes:       w.log.Size(),
		TailRecords: tail.Records,
		TailBytes:   tail.Bytes,
		Compactions: w.log.Compactions(),
	}
}

// Close releases the underlying log.
func (w *walJournal) Close() error { return w.log.Close() }

// entryCells converts submitted cells to their journaled form,
// embedding the canonical spec document for spec-compiled workloads so
// a fresh process can re-register them at replay.
func entryCells(cells []shift.Cell) []EntryCell {
	ecs := make([]EntryCell, len(cells))
	for i, c := range cells {
		ecs[i] = EntryCell{Label: c.Label, Config: c.Config}
		if doc, err := shift.SpecCanonical(c.Config.Workload); err == nil {
			ecs[i].Spec = doc
		}
	}
	return ecs
}

// replayCells is the inverse of entryCells. Registering a spec twice is
// a no-op, and a document that no longer compiles leaves its "spec:" ID
// dangling, so the cell fails loudly at run time.
func replayCells(ecs []EntryCell) []shift.Cell {
	cells := make([]shift.Cell, len(ecs))
	for i, ec := range ecs {
		if len(ec.Spec) > 0 {
			shift.LoadSpec(ec.Spec)
		}
		cells[i] = shift.Cell{Label: ec.Label, Config: ec.Config}
	}
	return cells
}
