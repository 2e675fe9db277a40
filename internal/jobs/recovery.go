package jobs

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"shift"
)

// This file is journal replay: Open calls recover before any worker
// goroutine exists, so everything here runs single-threaded and
// touches Job fields without locking.

// RecoveryStats counts what the journal replay at Open reconstructed,
// surfaced through shiftd's /v1/stats and /v1/metrics.
type RecoveryStats struct {
	// JobsRecovered is the number of incomplete jobs re-admitted into
	// the queue.
	JobsRecovered int
	// JobsTerminal is the number of jobs replayed directly to a
	// terminal state (done, failed, or cancelled before the restart).
	JobsTerminal int
	// CellsRestored is the number of journaled completed cells whose
	// results were resolved from the result store without
	// re-simulation.
	CellsRestored int
	// CellsRequeued is the number of cells re-enqueued for execution:
	// never finished before the crash, or finished but evicted from the
	// store since (re-running them reproduces the identical result).
	CellsRequeued int
	// TailRecords reports the torn tail the journal discarded at open —
	// the append in flight when the previous process died.
	TailRecords int
	// TailBytes is the size of that discarded tail.
	TailBytes int64
}

// recover replays the journal into the registry. Replay is idempotent
// (duplicate submit or cell entries are no-ops) and order-tolerant:
// terminal states are recomputed from the cell entries, so OpEnd
// records are advisory and a crash between a cell entry and its end
// entry loses nothing. A job's finish order is that of the last record
// it had once settled (cancelled, or every cell resolved), so the
// retention bound drops the jobs the previous process had dropped.
func (m *Manager) recover() error {
	entries, err := m.cfg.Journal.Replay()
	if err != nil {
		return fmt.Errorf("jobs: journal replay: %w", err)
	}
	js := m.cfg.Journal.Stats()
	m.recovery.TailRecords = js.TailRecords
	m.recovery.TailBytes = js.TailBytes
	settled := make(map[*Job]int)
	for k, e := range entries {
		if e.Op == OpSnap {
			// A compacted job expands to its primitive ops.
			m.applyEntry(Entry{Op: OpSubmit, Job: e.Job, Client: e.Client, Created: e.Created, Cells: e.Cells, Sync: e.Sync})
			for _, op := range e.Ops {
				m.applyEntry(Entry{Op: OpCell, Job: e.Job, Cell: op.Cell, Err: op.Err})
			}
			if e.Cancelled {
				m.applyEntry(Entry{Op: OpCancel, Job: e.Job})
			}
		} else {
			m.applyEntry(e)
		}
		if j := m.jobs[e.Job]; j != nil && (j.cancelled || j.completed+j.failed == len(j.cellState)) {
			settled[j] = k
		}
	}
	m.finishRecovery(settled)
	return nil
}

// applyEntry folds one journal record into the registry.
func (m *Manager) applyEntry(e Entry) {
	switch e.Op {
	case OpSubmit:
		if _, ok := m.jobs[e.Job]; ok {
			return
		}
		cells := make([]shift.Cell, len(e.Cells))
		for i, ec := range e.Cells {
			if len(ec.Spec) > 0 {
				// Re-register the spec-compiled workload so the config's
				// "spec:" ID resolves in this process. Registration is
				// content-addressed, so replaying it twice is a no-op; a
				// document that no longer compiles leaves the ID dangling
				// and the cell fails loudly at run time.
				shift.LoadSpec(ec.Spec)
			}
			cells[i] = shift.Cell{Label: ec.Label, Config: ec.Config}
		}
		j := newJob(e.Job, cells, e.Created, e.Client, &m.shared)
		j.wire, j.recovered, j.sync = e.Cells, true, e.Sync
		m.jobs[e.Job] = j
		m.registryCells += len(cells)
		m.noteID(e.Job)
	case OpCell:
		j, ok := m.jobs[e.Job]
		if !ok || e.Cell < 0 || e.Cell >= len(j.cellState) {
			return
		}
		if j.cellState[e.Cell] == cellDone || j.cellState[e.Cell] == cellFailed {
			return // duplicate entry; replay is idempotent
		}
		if e.Err != "" {
			// The failure was deterministic (transient errors are retried,
			// not journaled as terminal): replay it rather than re-run it.
			j.finishCellLocked(e.Cell, nil, errors.New(e.Err))
			return
		}
		// A completed cell's result lives content-addressed in the
		// store; a hit restores it without re-simulation, shared like a
		// live cell's, and a miss leaves the cell queued — deterministic
		// simulation makes the re-run bit-identical.
		if m.cfg.Lookup != nil {
			key := j.cells[e.Cell].Key()
			if r, ok := m.cfg.Lookup(key); ok {
				j.finishCellLocked(e.Cell, m.shared.share(key, r), nil)
				m.recovery.CellsRestored++
				return
			}
		}
		// Store miss: the cell stays cellQueued and finishRecovery
		// re-enqueues it.
	case OpCancel:
		if j, ok := m.jobs[e.Job]; ok {
			j.cancelled = true
		}
	case OpEnd:
		// Advisory: the terminal state is recomputed from the cell ops.
	case OpLastID:
		m.noteID(e.Job)
	}
}

// noteID makes sure no new ID is at or below journaled ID id.
func (m *Manager) noteID(id string) {
	m.nextID = max(m.nextID, idNum(id))
}

// finishRecovery settles every replayed job: it drops the queued cells
// of cancelled jobs, finalizes the jobs whose cells all resolved and
// retires them in finish order (settled holds each one's position in the
// journal), and re-enqueues the rest in ID order — submission order — so
// the recovered queue's tie-break sequence is the original one.
func (m *Manager) finishRecovery(settled map[*Job]int) {
	now := m.cfg.Now()
	var terminal, pending []*Job
	for _, j := range m.jobs {
		if j.cancelled {
			for i, cs := range j.cellState {
				if cs == cellQueued {
					j.cellState[i] = cellDropped
					j.dropped++
				}
			}
		}
		if finished, _ := j.maybeFinalize(now); finished {
			j.broadcast() // nobody follows it yet; it drops its channel
			terminal = append(terminal, j)
		} else {
			pending = append(pending, j)
		}
	}
	slices.SortFunc(terminal, func(a, b *Job) int { return cmp.Compare(settled[a], settled[b]) })
	for _, j := range terminal {
		m.recovery.JobsTerminal++
		m.retireLocked(j)
	}
	sortByID(pending)
	for _, j := range pending {
		if j.completed+j.failed > 0 {
			j.state = StateRunning
			j.started = j.created
		}
		m.recovery.JobsRecovered++
		m.recoveredPending++
		// Re-enqueue the unresolved cells, partitioned into batches afresh:
		// what is left of a half-finished batch runs as one batch again.
		// Recovery ignores the MaxQueue bound: these cells were admitted
		// before the restart, and refusing them now would strand their
		// jobs.
		var unresolved []int
		for i, cs := range j.cellState {
			if cs == cellQueued {
				unresolved = append(unresolved, i)
			}
		}
		m.enqueueLocked(j, unresolved)
		m.recovery.CellsRequeued += len(unresolved)
	}
}
