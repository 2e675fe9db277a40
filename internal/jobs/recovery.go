package jobs

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"shift"
)

// This file is apply, the one mutator of job state, and journal replay
// through it, which Open runs before any worker exists, without locking.

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

// recover replays the journal into the registry, every record through
// apply as it went live (an OpSnap as the records it folds). Terminal
// states are recomputed from the cell records, so OpEnd records are
// advisory and a crash between a cell record and its end record loses
// nothing. A job's finish order is that of the last record it had once
// settled (cancelled, or every cell resolved), so the retention bound
// drops the jobs the previous process had dropped.
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
		j := m.jobs[e.Job]
		if e.Op == OpSnap {
			j, _, _ = m.apply(j, Entry{Op: OpSubmit, Job: e.Job, Client: e.Client, Created: e.Created, Cells: e.Cells, Sync: e.Sync}, nil)
			for _, op := range e.Ops {
				m.apply(j, Entry{Op: OpCell, Job: e.Job, Cell: op.Cell, Err: op.Err}, nil)
			}
			if e.Cancelled {
				m.apply(j, Entry{Op: OpCancel, Job: e.Job}, nil)
			}
		} else {
			j, _, _ = m.apply(j, e, nil)
		}
		if j != nil && (j.cancelled || j.completed+j.failed == len(j.cellState)) {
			settled[j] = k
		}
	}
	// Settle only now: a cell that was running when its job's cancel was
	// journaled looks queued until its own record, which may follow the
	// cancel.
	now := m.cfg.Now()
	for _, j := range m.jobs {
		j.settleLocked(now)
	}
	m.finishRecovery(settled)
	return nil
}

// live is what a live path hands apply beyond its record, where replay
// has only the record: the submitted cells (OpSubmit), the finished
// cell's shared result, nil for a failure (OpCell), and the time of the
// change.
type live struct {
	cells  []shift.Cell
	result *shift.SharedResult
	now    time.Time
}

// apply folds record e into the registry: the one place a submission, a
// cell outcome or a cancellation changes job state. j is the job e names,
// nil for a new one; apply returns it (for OpSubmit, the job it made). A
// live path calls it with lv once the record is durable (completeCells
// has the one exception); replay calls it with lv nil, once per record. A
// duplicate record changes nothing. A live change also settles the job
// and returns how many queued cells that dropped and whether it finalized
// the job; replay settles after the last record (see recover). apply wakes
// no follower. The caller holds the manager's mu for OpSubmit, j.mu for
// OpCell and OpCancel; replay holds neither.
func (m *Manager) apply(j *Job, e Entry, lv *live) (_ *Job, dropped int, finished bool) {
	switch e.Op {
	case OpSubmit:
		if j != nil {
			return j, 0, false
		}
		var cells []shift.Cell
		if lv != nil {
			cells = lv.cells
		} else {
			cells = replayCells(e.Cells)
		}
		j = newJob(e.Job, cells, e.Created, e.Client, m.cfg.Results)
		j.wire, j.sync, j.recovered = e.Cells, e.Sync, lv == nil
		m.jobs[e.Job] = j
		m.registryCells += len(cells)
		m.nextID = max(m.nextID, idNum(e.Job)) // no new ID collides with it
		return j, 0, false
	case OpCell:
		i := e.Cell
		if j == nil || i < 0 || i >= len(j.cellState) || j.cellState[i] >= cellDone {
			return j, 0, false // no such cell, or it has its outcome
		}
		var s *shift.SharedResult
		switch {
		case e.Err != "":
			// A deterministic failure (transient ones are retried, not
			// journaled) replays rather than re-runs.
		case lv != nil:
			s = lv.result
		default:
			// A store hit restores the result, shared like a live cell's;
			// a miss leaves the cell queued, and the re-run reproduces it.
			key := j.cells[i].Key()
			r, ok := shift.RunResult{}, false
			if m.cfg.Lookup != nil {
				r, ok = m.cfg.Lookup(key)
			}
			if !ok {
				return j, 0, false
			}
			s = m.cfg.Results.Share(key, &r)
			m.recovery.CellsRestored++
		}
		if j.cellState[i] == cellRunning {
			j.running--
		}
		j.finishCellLocked(i, s, e.Err)
	case OpCancel:
		if j == nil {
			return nil, 0, false
		}
		j.cancelled = true
	case OpLastID:
		m.nextID = max(m.nextID, idNum(e.Job))
		return j, 0, false
	default:
		// OpEnd is advisory: the cell records decide the terminal state.
		return j, 0, false
	}
	if lv == nil {
		return j, 0, false
	}
	dropped, finished = j.settleLocked(lv.now)
	return j, dropped, finished
}

// finishRecovery retires the replayed jobs that are terminal in finish
// order (settled holds each one's position in the journal), and
// re-enqueues the rest in ID order — submission order — so the recovered
// queue's tie-break sequence is the original one.
func (m *Manager) finishRecovery(settled map[*Job]int) {
	var terminal, pending []*Job
	for _, j := range m.jobs {
		if j.state.Terminal() {
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
