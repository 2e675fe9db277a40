package shift

import (
	"fmt"
	"runtime/debug"
	"time"
)

// This file is the engine's failure-containment layer: panics inside
// batch execution are recovered into typed per-cell errors
// (PanicError), and an optional per-cell watchdog converts stuck cells
// into typed timeouts (TimeoutError) instead of wedging a worker slot.
// Both preserve RunAll's determinism contract — a failing cell yields
// the error of the lowest-index failing cell, and every other cell of
// the grid still completes.

// PanicError is the typed per-cell error a recovered simulation panic
// becomes: the panicking cell fails, the rest of the grid completes,
// and the process survives. The simulator is deterministic, so a panic
// reproduces on retry — PanicError is never transient.
type PanicError struct {
	// Value is the recovered panic value, stringified.
	Value string
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error renders the panic value; the stack is carried for logs.
func (e *PanicError) Error() string {
	return fmt.Sprintf("simulation panicked: %s", e.Value)
}

// TimeoutError is the typed per-cell error the watchdog produces for a
// cell (or batch) that exceeded the engine's cell timeout: the stuck
// simulation is abandoned to finish in the background, its worker slot
// is freed, and the cell fails with this error instead of wedging the
// grid. Timeouts are transient (Transient): a cell stuck behind a
// load spike can succeed on retry.
type TimeoutError struct {
	// Timeout is the budget the cell exceeded.
	Timeout time.Duration
	// Cells is the number of cells sharing the budget (1 for a single
	// cell; a batch's budget scales with its size).
	Cells int
}

// Error names the exceeded budget.
func (e *TimeoutError) Error() string {
	if e.Cells > 1 {
		return fmt.Sprintf("simulation watchdog: batch of %d cells exceeded %s", e.Cells, e.Timeout)
	}
	return fmt.Sprintf("simulation watchdog: cell exceeded %s", e.Timeout)
}

// Transient marks a timeout as worth retrying (internal/retry reads it):
// the failure came from infrastructure pressure, not from the
// simulation, whose validation errors and panics retrying reproduces.
func (e *TimeoutError) Transient() bool { return true }

// SetCellTimeout arms the per-cell watchdog: a cell taking longer than
// d fails with a TimeoutError (a batch of K cells gets K*d). The
// abandoned simulation finishes in the background — its goroutine is
// not killable — and its eventual result is dropped (a retry simulates
// the cell again), but its worker slot is freed immediately, so one
// wedged cell cannot starve the pool. 0 (the default) disables the
// watchdog; timeouts are inherently racy, so deterministic sweeps should
// leave it off and services should set it well above the slowest
// legitimate cell. Not safe to call concurrently with RunAll.
func (e *Engine) SetCellTimeout(d time.Duration) { e.cellTimeout = d }

// exec executes one batch — a grid's stream-sharing cells, or a single
// cell as a batch of one — under the containment layer (contain). Either
// containment error fails the batch as a whole; the engine then re-runs a
// batch of two or more member by member, through this same function,
// which isolates the member at fault.
func (e *Engine) exec(cfgs []Config) ([]RunResult, error) {
	return contain(e, len(cfgs), func() ([]RunResult, error) {
		if e.runBatch != nil {
			return e.runBatch(cfgs)
		}
		return RunBatch(cfgs)
	})
}

// contain runs one simulation of the given number of cells — exec's
// batch, or one of runSpecs' specs — under the containment layer: panics
// are always recovered into a PanicError, and when the watchdog is armed
// the run has cells×cellTimeout to finish (K cells legitimately take K
// times one cell).
func contain[T any](e *Engine, cells int, run func() (T, error)) (T, error) {
	guarded := func() (v T, err error) {
		defer func() {
			if p := recover(); p != nil {
				e.panicked.Add(1)
				err = &PanicError{Value: fmt.Sprint(p), Stack: debug.Stack()}
			}
		}()
		return run()
	}
	if e.cellTimeout <= 0 {
		return guarded()
	}
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := guarded()
		ch <- outcome{v, err}
	}()
	budget := e.cellTimeout * time.Duration(cells)
	t := time.NewTimer(budget)
	defer t.Stop()
	select {
	case o := <-ch:
		return o.v, o.err
	case <-t.C:
		e.timedOut.Add(1)
		var zero T
		return zero, &TimeoutError{Timeout: budget, Cells: cells}
	}
}
