// Package jobs is the job subsystem every shiftd cell goes through — the
// /v1/jobs API, and /v1/run and /v1/grid, which submit a job and wait for
// it: a job registry, per-client token-bucket admission control, and a
// bounded shortest-job-first batch scheduler.
//
// A job is an ordered list of simulation cells (the shape of a /v1/grid
// request; a /v1/run is a job of one). The queue schedules the engine's
// unit, the batch: a submitted job's cells are partitioned by the record
// stream they consume (shift.Config.Stream — the six designs of one
// workload are one batch) and each part is one schedulable unit in a
// single process-wide priority queue ordered by estimated cost (the sum
// of its cells' estimateCost), so cheap sampled probes overtake
// expensive exact confirmations regardless of arrival order — the
// SJF-style batch formation of BLIS-like inference schedulers. A worker
// pops a batch and executes its cells together through the
// caller-supplied run function (shiftd passes Engine.RunKeyed, so job
// cells share the engine's store, in-flight deduplication, and
// concurrency bound with every figure's cells, and a batch generates its
// stream once). Admission, the queue bound and the queue depth still
// count cells, and every cell still has its own outcome: its own journal
// record, its own event, its own retry.
//
// Completion fan-in is cell-keyed, never completion-ordered: each
// result lands in its cell's slot, so a drained job's result list is
// deterministically ordered like the request — the order in which
// /v1/grid answers.
//
// Cancellation drops queued cells (lazily reaped from the queue) while
// running cells finish and publish their results — the engine seeds
// the result store either way, so cancelled work is never wasted.
//
// The registry is bounded by one rule with no knob: a finished job stays
// readable until retainedCells cells of jobs that finished after it have
// finished too, and then leaves (oldest-finished first); a job whose
// submitter waits for it (SubmitSyncFrom) leaves the moment it is
// terminal. IDs are never reused, so an ID that has left answers "not
// found" for good.
package jobs

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shift"
	"shift/internal/retry"
)

// State is a job lifecycle state.
type State string

// The job lifecycle: Queued → Running → one of the terminal states
// Done (every cell succeeded), Failed (at least one cell errored), or
// Cancelled (cancellation requested before completion).
const (
	// StateQueued means no cell has started executing yet.
	StateQueued State = "queued"
	// StateRunning means at least one cell has started.
	StateRunning State = "running"
	// StateDone means every cell completed successfully.
	StateDone State = "done"
	// StateFailed means all cells finished and at least one errored.
	StateFailed State = "failed"
	// StateCancelled means the job was cancelled; queued cells were
	// dropped and any running cells have since finished.
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event types carried by Event.Type.
const (
	// EventCell announces one finished cell (success or failure).
	EventCell = "cell"
	// EventEnd announces the job's terminal state; it is always the
	// last event of a job.
	EventEnd = "end"
)

// Event is one entry of a job's append-only event log, consumed by the
// streaming endpoint: one EventCell per finished cell as it lands,
// then exactly one EventEnd. The log is derived on demand from the
// job's state (see Job.EventsSince), never stored.
type Event struct {
	// Type is EventCell or EventEnd.
	Type string
	// Index is the cell's position in the submitted job (EventCell).
	Index int
	// Label is the cell's label (EventCell).
	Label string
	// Key is the cell's content-address, shift.Config.Key (EventCell).
	Key string
	// Result points at the cell's result (EventCell with empty Err, nil
	// otherwise), which every finished cell of the manager with the same
	// key and an equal result shares. It never changes again, so the
	// pointer is safe to read without the job's lock; it must not be
	// written through.
	Result *shift.RunResult
	// Err is the cell's error message (EventCell of a failed cell).
	Err string
	// State is the job's terminal state (EventEnd).
	State State

	// shared is the entry Result points into.
	shared *shift.SharedResult
}

// ResultJSON returns Result's encoding/json bytes when the manager's
// result table holds them, nil otherwise (see shift.SharedResult.JSON).
// The bytes must not be modified.
func (ev Event) ResultJSON() []byte { return ev.shared.JSON() }

// cell execution states (per cell, guarded by Job.mu).
type cellState uint8

const (
	cellQueued cellState = iota
	cellRunning
	cellDone
	cellFailed
	cellDropped
)

// Job is one submitted job. All exported methods are safe for concurrent
// use.
//
// A terminal job keeps only what its status and events read, flat: the
// labels packed in one string, a slot per finished cell in the
// manager's result table, the keys of the cells without one, the cell
// states and the completion order. cells and attempts are needed only
// while a cell can still run, and settleLocked drops them. The fields
// that hold pointers come first: the collector scans an object only up to
// its last pointer, and a finished job stays in the registry for up to
// retainedCells later cells.
type Job struct {
	id     string
	client string
	// labels holds the cells' labels back to back: cell i's ends at
	// labelEnds[i] and starts where cell i-1's ends.
	labels    string
	labelEnds []uint32
	// cells are the submitted configs with their keys. They are read only
	// while a cell runs or is enqueued: a worker reads them after
	// startCells counts the cell as running, and a requeue enqueues the
	// cell under mu, so the job cannot finalize and drop them under either
	// reader.
	cells []shift.KeyedConfig
	// slots resolves what res indexes: the manager's result table, or —
	// once the job has left the registry — its finished cells' entries
	// (see detach). Written and read under mu.
	slots slotTable
	// wire is the journaled form of the cells (canonical Config JSON
	// plus spec documents), kept so compaction snapshots and the
	// original submit entry encode identically.
	wire []EntryCell

	// mu guards the fields from state on.
	state     State
	cellState []cellState
	// res[i] is finished cell i's slot in slots; it means nothing for a
	// cell that is not done.
	res []uint32
	// keys holds, once the job is terminal, the keys of the cells with no
	// entry in slots — failed or dropped ones — and is nil when every
	// cell finished: a finished cell's key is its entry's.
	keys []string
	// cellErrs holds failed cells' messages, allocated at the first
	// failure: nil for a job no cell of which failed.
	cellErrs []string
	// attempts counts the extra attempts consumed per cell (retry
	// policy), allocated at the first requeue.
	attempts []int
	// order records the completion order of finished cells, and with
	// the per-cell slots above is the whole event log: event p is cell
	// order[p]'s, and the end event follows the last of them once the
	// job is terminal.
	order []int32
	// changed is closed on the next change; an ended job's (see
	// endedLocked) is closedChan.
	changed chan struct{}

	// journaling orders the job's journaled changes — cell completions
	// and a cancel — among themselves and against compaction: each is
	// appended and applied under it, and a compaction holds every job's
	// from its snapshot to the rewrite, so the journal's order is the
	// order they took effect in and a snapshot never misses a record the
	// rewrite drops. Taken before mu, and after Manager.mu.
	journaling sync.Mutex
	mu         sync.Mutex

	cancelled bool
	// sync marks a job whose submitter waits for it and is never handed
	// its ID (SubmitSyncFrom): it leaves the registry when terminal.
	sync bool
	// left is set when the job leaves the registry (detach).
	left bool
	// retired is set, under the manager's mu, when the terminal job has
	// gone on the manager's finished queue (or left the registry).
	retired bool
	// recovered marks a job rebuilt from the journal; its finalization
	// decrements the manager's recovering count and is excluded from
	// the latency percentiles (a latency spanning a process restart
	// measures the outage, not the scheduler).
	recovered bool
	completed int
	failed    int
	dropped   int
	running   int
	// created, started and finished are wall-clock Unix nanoseconds (0:
	// not yet), which hold no *time.Location for the collector to scan.
	created, started, finished int64
}

// closedChan is every terminal job's changed channel: nothing changes
// again, so a follower that waits on it returns at once.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// slotTable resolves the slots of a job's finished cells.
type slotTable interface{ Slots() []*shift.SharedResult }

// ownSlots is the slot table of a job that has left the registry: the
// entries of its finished cells.
type ownSlots []*shift.SharedResult

// Slots returns the entries.
func (o ownSlots) Slots() []*shift.SharedResult { return o }

// newJob returns a queued job over a copy of cells, each keyed once,
// whose finished cells will point into results.
func newJob(id string, cells []shift.Cell, created time.Time, client string, results *shift.ResultCache) *Job {
	n := len(cells)
	j := &Job{
		id:        id,
		client:    client,
		labelEnds: make([]uint32, n),
		cells:     make([]shift.KeyedConfig, n),
		slots:     results,
		state:     StateQueued,
		cellState: make([]cellState, n),
		res:       make([]uint32, n),
		order:     make([]int32, 0, n),
		changed:   make(chan struct{}),
		created:   created.UnixNano(),
	}
	size := 0
	for _, c := range cells {
		size += len(c.Label)
	}
	var labels strings.Builder
	labels.Grow(size)
	for i, c := range cells {
		labels.WriteString(c.Label)
		j.labelEnds[i] = uint32(labels.Len())
		j.cells[i] = shift.KeyConfig(c.Config)
	}
	j.labels = labels.String()
	return j
}

// ID returns the job's registry identifier.
func (j *Job) ID() string { return j.id }

// label returns cell i's label. Labels never change, so no lock is held.
func (j *Job) label(i int) string {
	start := uint32(0)
	if i > 0 {
		start = j.labelEnds[i-1]
	}
	return j.labels[start:j.labelEnds[i]]
}

// keyLocked returns cell i's content address; entries is the job's
// slots when cell i is done. Called with mu held.
func (j *Job) keyLocked(i int, entries []*shift.SharedResult) string {
	switch {
	case j.cellState[i] == cellDone:
		return entries[j.res[i]].Key()
	case j.cells != nil:
		return j.cells[i].Key()
	default:
		return j.keys[i]
	}
}

// wallTime returns the time of wall-clock Unix nanoseconds ns, the zero
// Time for 0.
func wallTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Status is a point-in-time snapshot of a job, safe to read without
// further locking. Slices are index-aligned with the submitted cells.
type Status struct {
	// ID is the job identifier.
	ID string
	// State is the lifecycle state at snapshot time.
	State State
	// CancelRequested reports that cancellation was requested; the
	// state turns StateCancelled once running cells drain.
	CancelRequested bool
	// Cells is the number of submitted cells.
	Cells int
	// Completed counts cells that finished successfully.
	Completed int
	// Failed counts cells whose simulation errored.
	Failed int
	// Dropped counts queued cells dropped by cancellation.
	Dropped int
	// Created, Started, and Finished are the lifecycle timestamps
	// (zero when the transition has not happened yet).
	Created, Started, Finished time.Time
	// Done[i] reports whether Results[i] is valid.
	Done []bool
	// Labels[i] is cell i's label.
	Labels []string
	// Keys[i] is cell i's content-address (shift.Config.Key).
	Keys []string
	// Results[i] is cell i's result, valid iff Done[i].
	Results []shift.RunResult
	// CellErrs[i] is cell i's error message, empty unless the cell
	// failed.
	CellErrs []string
}

// Snapshot returns the job's current status.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.cellState)
	st := Status{
		ID:              j.id,
		State:           j.state,
		CancelRequested: j.cancelled,
		Cells:           n,
		Completed:       j.completed,
		Failed:          j.failed,
		Dropped:         j.dropped,
		Created:         wallTime(j.created),
		Started:         wallTime(j.started),
		Finished:        wallTime(j.finished),
		Done:            make([]bool, n),
		Labels:          make([]string, n),
		Keys:            make([]string, n),
		Results:         make([]shift.RunResult, n),
		CellErrs:        make([]string, n),
	}
	copy(st.CellErrs, j.cellErrs)
	var entries []*shift.SharedResult
	if j.completed > 0 {
		entries = j.slots.Slots()
	}
	for i, cs := range j.cellState {
		st.Labels[i], st.Keys[i] = j.label(i), j.keyLocked(i, entries)
		if st.Done[i] = cs == cellDone; st.Done[i] {
			st.Results[i] = *entries[j.res[i]].Result()
		}
	}
	return st
}

// EventsSince returns the events at or after absolute index n, whether
// the job has ended (see endedLocked), and a channel closed on the
// next change — so a streaming consumer can replay the log from the
// beginning and then follow it live without polling.
//
// No event is stored: a finished cell's result is already in its slot,
// so event p is built from cell order[p] when asked for, and the end
// event is position len(order) of an ended job. A finished cell's
// slot never changes again, so every subscriber, however late or slow,
// sees the same events at the same positions: one per finished cell in
// completion order, then exactly one end event, each delivered exactly
// once to a cursor-advancing follower.
func (j *Job) EventsSince(n int) (evs []Event, terminal bool, changed <-chan struct{}) {
	return j.AppendEventsSince(nil, n)
}

// AppendEventsSince is EventsSince appending the events to dst, so a
// follower can build them in a buffer it reuses.
func (j *Job) AppendEventsSince(dst []Event, n int) (evs []Event, terminal bool, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	n = max(n, 0)
	terminal = j.endedLocked()
	cells := max(len(j.order)-n, 0)
	end := terminal && n <= len(j.order)
	if cells == 0 && !end {
		return dst, terminal, j.changed
	}
	evs = slices.Grow(dst, cells+1)
	if cells > 0 {
		entries := j.slots.Slots()
		for _, idx := range j.order[n:] {
			evs = append(evs, j.cellEventLocked(int(idx), entries))
		}
	}
	if end {
		evs = append(evs, Event{Type: EventEnd, State: j.state})
	}
	return evs, terminal, j.changed
}

// cellEventLocked builds finished cell i's event from its slot; entries
// is the job's slots. Called with mu held.
func (j *Job) cellEventLocked(i int, entries []*shift.SharedResult) Event {
	ev := Event{Type: EventCell, Index: i, Label: j.label(i)}
	if j.cellState[i] == cellFailed {
		ev.Key, ev.Err = j.keyLocked(i, entries), j.cellErrs[i]
		return ev
	}
	s := entries[j.res[i]]
	ev.Key, ev.Result, ev.shared = s.Key(), s.Result(), s
	return ev
}

// finishCellLocked records cell i's outcome — its shared result s, or
// the failure message msg — in its slot and in the completion order,
// which publishes its event. Called with mu held.
func (j *Job) finishCellLocked(i int, s *shift.SharedResult, msg string) {
	if msg != "" {
		j.cellState[i] = cellFailed
		j.failed++
		if j.cellErrs == nil {
			j.cellErrs = make([]string, len(j.cellState))
		}
		j.cellErrs[i] = msg
	} else {
		j.cellState[i] = cellDone
		j.completed++
		j.res[i] = s.Slot()
	}
	j.order = append(j.order, int32(i))
}

// broadcast wakes every EventsSince follower, unless the job has ended
// or is a terminal sync job, whose followers wait for detach. An ended
// job points at closedChan rather than holding a channel of its own.
// Called with mu held.
func (j *Job) broadcast() {
	if j.changed == closedChan || j.state.Terminal() && !j.endedLocked() {
		return
	}
	close(j.changed)
	j.changed = closedChan
	if !j.endedLocked() {
		j.changed = make(chan struct{})
	}
}

// endedLocked reports whether the job's end event is published: once it
// is terminal, and a sync job once it has also left the registry, so its
// waiter, woken by the end, never finds it there. Called with mu held.
func (j *Job) endedLocked() bool {
	return j.state.Terminal() && (j.left || !j.sync)
}

// startCells transitions the still-runnable cells of a popped batch to
// running and returns them; a cell dropped by cancellation is left out.
func (j *Job) startCells(cells []int, now time.Time) []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	started := cells[:0]
	for _, i := range cells {
		if j.cellState[i] == cellQueued {
			j.cellState[i] = cellRunning
			j.running++
			started = append(started, i)
		}
	}
	if len(started) > 0 && j.state == StateQueued {
		j.state = StateRunning
		j.started = now.UnixNano()
	}
	return started
}

// batchCells returns the keyed configs of cells, running cells of j: a
// window of the job's own slice when they are a contiguous run (as a
// batch of a whole job is), a copy otherwise. Read without mu (see
// Job.cells).
func (j *Job) batchCells(cells []int) []shift.KeyedConfig {
	first, n := cells[0], len(cells)
	for k, i := range cells {
		if i != first+k {
			ks := make([]shift.KeyedConfig, n)
			for k, i := range cells {
				ks[k] = j.cells[i]
			}
			return ks
		}
	}
	return j.cells[first : first+n : first+n]
}

// settleLocked drops the queued cells of a cancelled job and, once no
// cell is queued or running, moves the job to its terminal state and drops
// the state only a runnable cell reads, keeping the keys of the cells that
// did not finish. It returns how many cells it dropped and whether it
// finalized the job. Called with mu held.
func (j *Job) settleLocked(now time.Time) (dropped int, finished bool) {
	if j.state.Terminal() {
		return 0, false
	}
	if j.cancelled {
		for i, cs := range j.cellState {
			if cs == cellQueued {
				j.cellState[i] = cellDropped
				dropped++
			}
		}
		j.dropped += dropped
	}
	if j.running > 0 || j.completed+j.failed+j.dropped < len(j.cellState) {
		return dropped, false
	}
	switch {
	case j.cancelled:
		j.state = StateCancelled
	case j.failed > 0:
		j.state = StateFailed
	default:
		j.state = StateDone
	}
	j.finished = now.UnixNano()
	if j.completed < len(j.cellState) {
		j.keys = make([]string, len(j.cellState))
		for i, cs := range j.cellState {
			if cs != cellDone {
				j.keys[i] = j.cells[i].Key()
			}
		}
	}
	j.cells, j.attempts = nil, nil
	return dropped, true
}

// detach gives the job, which is leaving the registry, slots of its own
// holding the entries of its finished cells, and releases their
// references in results, the manager's table, whose slots may then be
// reused. A follower that still holds the job reads it to the end from
// its own slots, and a sync job ends here. Called with the manager's mu
// held.
func (j *Job) detach(results *shift.ResultCache) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.left = true
	defer j.broadcast()
	if j.completed == 0 {
		return // res indexes nothing
	}
	// Every slot res holds is referenced until the job's last cell on it
	// releases it, so the list read here stays valid for them.
	entries := results.Slots()
	own := make(ownSlots, 0, j.completed)
	for i, cs := range j.cellState {
		if cs == cellDone {
			s := entries[j.res[i]]
			j.res[i] = uint32(len(own))
			own = append(own, s)
			results.Release(s)
		}
	}
	j.slots = own
}

// ErrQueueFull is returned by Submit when admitting the job would push
// the queue past its bound; the caller should back off and retry.
var ErrQueueFull = errors.New("jobs: queue full")

// errClosed is returned by Submit after Close.
var errClosed = errors.New("jobs: manager closed")

// ErrNotFound is returned by Cancel for an ID not in the registry: never
// issued, or its job has left.
var ErrNotFound = errors.New("jobs: no such job")

// ErrDraining is returned by Submit while the manager is draining:
// shutdown has begun, running cells are finishing, and no new work is
// admitted. The caller should retry against another instance or after
// the process restarts.
var ErrDraining = errors.New("jobs: draining")

// AdmissionError is SubmitFrom's refusal by the client's token bucket,
// which it left as it was. Never reports a job of more cells than the
// bucket holds at all (Config.Burst), which no wait admits; otherwise
// RetryAfter says when a retry would be.
type AdmissionError struct{ Decision }

// Error implements error.
func (e *AdmissionError) Error() string {
	if e.Never {
		return "jobs: job exceeds the admission burst capacity"
	}
	return fmt.Sprintf("jobs: admission bucket empty; retry in %s", e.RetryAfter)
}

// Config parameterizes a Manager.
type Config struct {
	// Workers is the number of scheduler goroutines executing batches
	// (0 = runtime.GOMAXPROCS). The engine's own semaphore still bounds
	// concurrent simulations process-wide, so Workers only caps how
	// many job batches compete for engine slots at once.
	Workers int
	// MaxQueue bounds the number of queued (not yet running) cells
	// across all jobs (0 = 1024). Submissions that would exceed it
	// fail with ErrQueueFull.
	MaxQueue int
	// Rate is the per-client admission refill rate in tokens per
	// second; one cell costs one token (0 = 1).
	Rate float64
	// Burst is the per-client bucket capacity; a job with more cells
	// than Burst can never be admitted (0 = 64).
	Burst float64
	// RunBatch executes the cells of one batch — one record stream — and
	// returns each cell's result or error, index-aligned (required). Each
	// cell comes with the key the manager computed at submission; RunBatch
	// reads the slice only until it returns. shiftd passes
	// Engine.RunKeyed, so job cells share the engine with figures and are
	// hashed once.
	RunBatch func([]shift.KeyedConfig) ([]shift.RunResult, []error)
	// Run is the per-cell form of RunBatch, read only when RunBatch is
	// nil: Open wraps it into a RunBatch that runs a batch's cells one
	// after another. It remains for the repository benchmark
	// (benchmark/layers.go), whose files a change that claims a gain may
	// not touch.
	Run func(shift.Config) (shift.RunResult, error)
	// Retries is the number of extra attempts granted to a cell whose
	// run fails with a retry.Transient error, a watchdog timeout: the
	// cell is re-enqueued alone, as a batch of one, instead of failing
	// the job. 0 disables retry.
	Retries int
	// Journal optionally makes accepted jobs durable: submissions,
	// per-cell completions, cancellations, and finalizations are
	// journaled, and Open replays the journal into a recovered job
	// registry (see OpenWAL). nil — the default — keeps the manager
	// purely in-memory, byte-for-byte the pre-durability behavior.
	Journal Journal
	// Results is the in-memory result table the registry's finished cells
	// share by reference (nil = a private one). shiftd passes its store's
	// — the ResultCache itself, or a tiered BlobStore's Memory — so a
	// finished cell the engine stored is held once.
	Results *shift.ResultCache
	// Lookup resolves a content-address against the result store
	// during recovery (shiftd passes the store's Lookup): a journaled
	// completed cell whose result is still stored is restored without
	// re-simulation; a miss re-enqueues the cell — deterministic
	// simulation makes the recomputed result bit-identical. nil treats
	// every completed cell as a miss.
	Lookup func(key string) (shift.RunResult, bool)
	// Now supplies the clock (nil = time.Now; tests inject a fake).
	Now func() time.Time
}

// Manager owns the job registry, the admission buckets, and the
// SJF scheduler. All methods are safe for concurrent use.
type Manager struct {
	cfg     Config
	buckets *Buckets

	mu            sync.Mutex
	cond          *sync.Cond
	heap          batchHeap
	queued        int // cells in the heap still runnable (not dropped by a cancel)
	seq           int64
	nextID        int64
	jobs          map[string]*Job
	registryCells int // cells of the jobs in jobs
	// finished holds the terminal jobs of jobs not submitted by a waiting
	// caller, oldest-finished first, and finishedCells their cells.
	finished      []*Job
	finishedCells int
	closed        bool
	draining      bool
	drainStarted  chan struct{} // closed when draining turns true
	running       int           // cells currently executing in workers

	// recoveredPending counts recovered non-terminal jobs that have not
	// reached a terminal state since restart; shiftd reports the
	// "recovering" readiness phase while it is nonzero.
	recoveredPending int
	recovery         RecoveryStats

	admitted    int64
	rejected    int64
	cancelled   int64
	retried     int64
	evicted     int64
	batches     int64 // batches workers have started
	batchCells  int64 // cells in them
	journalErrs atomic.Int64

	// Completed-job latencies, a bounded ring feeding the percentile
	// stats; count/sum cover every completed job regardless of ring
	// eviction.
	latencies []float64
	latPos    int
	latCount  int64
	latSum    float64
}

// latencyRing bounds the latency samples kept for percentiles.
const latencyRing = 1024

// retainedCells is the retention bound: a finished job leaves the
// registry once this many cells of jobs that finished after it have
// finished. At shiftd's replayed-job rate (≈ 16k cells/s on two CPUs)
// that keeps a finished job readable for about half a second, and an
// idle service keeps its last 8,192 finished cells for good. shiftd's
// jobs_retained help text and the README's polling contract quote it.
const retainedCells = 1 << 13

// New returns a running manager with cfg.Workers scheduler goroutines.
// Call Close to stop them. It panics if the journal replay fails; a
// caller wiring a journal should use Open and handle the error.
func New(cfg Config) *Manager {
	m, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("jobs: %v", err))
	}
	return m
}

// Open returns a running manager with cfg.Workers scheduler
// goroutines, first replaying cfg.Journal (when set) into the job
// registry: terminal jobs are reconstructed, incomplete ones are
// re-admitted into the queue with their already-completed cells
// resolved through cfg.Lookup, and new job IDs are guaranteed not to
// collide with journaled ones. Recovery happens before any worker
// starts, so a recovered queue is scheduled exactly like a fresh one.
// Call Close to stop the workers.
func Open(cfg Config) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 1024
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 1
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 64
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Results == nil {
		cfg.Results = shift.NewResultCache()
	}
	if cfg.RunBatch == nil {
		if cfg.Run == nil {
			panic("jobs: Config.RunBatch is required")
		}
		run := cfg.Run
		cfg.RunBatch = func(ks []shift.KeyedConfig) ([]shift.RunResult, []error) {
			rs, errs := make([]shift.RunResult, len(ks)), make([]error, len(ks))
			for i, k := range ks {
				rs[i], errs[i] = run(k.Config())
			}
			return rs, errs
		}
	}
	m := &Manager{
		cfg:          cfg,
		buckets:      newBuckets(cfg.Rate, cfg.Burst, cfg.Now),
		jobs:         make(map[string]*Job),
		drainStarted: make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	if cfg.Journal != nil {
		if err := m.recover(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m, nil
}

// Submit registers a new job and enqueues its cells, like SubmitFrom
// with an empty client key: an in-process caller, whom no bucket meters.
func (m *Manager) Submit(cells []shift.Cell) (*Job, error) {
	return m.SubmitFrom("", cells)
}

// SubmitSyncFrom is SubmitFrom for a caller that waits for the job and
// never hands its ID on (shiftd's /v1/run and /v1/grid): the job is
// admitted, queued and journaled like any other, but leaves the registry
// the moment it is terminal, and so does its recovered form. The caller
// reads it through the returned Job.
func (m *Manager) SubmitSyncFrom(client string, cells []shift.Cell) (*Job, error) {
	return m.submit(client, cells, true)
}

// SubmitFrom registers a new job from the given admission-control
// client and enqueues its cells, charging the client's token bucket one
// token per cell (none for the empty client, Submit's). It returns
// ErrDraining during graceful shutdown, ErrQueueFull when the queued-cell
// bound would be exceeded, an *AdmissionError when the client's bucket
// cannot pay for the job (each of these rejections is counted), and
// errClosed after Close. With a journal configured the submission is
// journaled — durably — before it is acknowledged; a journal write
// failure rejects the submission rather than admitting a job that a
// restart would forget. The bucket is charged last, so a refused
// submission costs the client nothing. The job stays readable after it
// finishes until retainedCells later-finishing cells have finished.
func (m *Manager) SubmitFrom(client string, cells []shift.Cell) (*Job, error) {
	return m.submit(client, cells, false)
}

// submit is SubmitFrom, and SubmitSyncFrom when sync is set.
func (m *Manager) submit(client string, cells []shift.Cell, sync bool) (*Job, error) {
	if len(cells) == 0 {
		return nil, errors.New("jobs: empty job")
	}
	now := m.cfg.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errClosed
	}
	if m.draining {
		m.rejected++
		return nil, ErrDraining
	}
	if m.queued+len(cells) > m.cfg.MaxQueue {
		m.rejected++
		return nil, ErrQueueFull
	}
	metered, cost := client != "", float64(len(cells))
	if metered {
		if d := m.buckets.check(client, cost); !d.OK {
			m.rejected++
			return nil, &AdmissionError{d}
		}
	}
	m.nextID++
	e := Entry{Op: opSubmit, Job: jobID(m.nextID), Client: client, Created: now, Sync: sync}
	if m.cfg.Journal != nil {
		e.Cells = entryCells(cells)
		if err := m.journalAppend(e); err != nil {
			m.nextID--
			return nil, fmt.Errorf("jobs: journal submit: %w", err)
		}
	}
	if metered {
		m.buckets.take(client, cost)
	}
	j, _, _ := m.apply(nil, e, &live{cells: cells, now: now})
	all := make([]int, len(cells))
	for i := range all {
		all[i] = i
	}
	m.enqueueLocked(j, all)
	m.admitted++
	m.cond.Broadcast()
	return j, nil
}

// enqueueLocked partitions the given cells of j by the record stream they
// consume and pushes one batch per stream, in order of first appearance,
// at the summed estimated cost of its cells. The caller hands cells over:
// the first stream's batch is filtered into cells in place, so a job of
// one workload's designs pushes the caller's slice as its batch. A job
// has few streams, so a cell finds its batch by scanning them. Called
// with mu held and while j cannot finalize, which would drop the configs
// it reads.
func (m *Manager) enqueueLocked(j *Job, cells []int) {
	if len(cells) == 0 {
		return
	}
	m.queued += len(cells)
	var streams []shift.StreamID
	var items []batchItem
	for _, i := range cells {
		cfg := j.cells[i].Config()
		sk := cfg.Stream()
		bi := 0
		for bi < len(streams) && streams[bi] != sk {
			bi++
		}
		if bi == len(streams) {
			streams = append(streams, sk)
			items = append(items, batchItem{job: j})
			if bi == 0 {
				items[0].cells = cells[:0]
			}
		}
		items[bi].cells = append(items[bi].cells, i)
		items[bi].cost += estimateCost(cfg)
	}
	for _, it := range items {
		m.pushLocked(it)
	}
}

// pushLocked queues one batch behind every earlier one of equal cost.
// Called with mu held.
func (m *Manager) pushLocked(it batchItem) {
	m.seq++
	it.seq = m.seq
	m.heap.push(it)
}

// jobID formats the n-th job ID.
func jobID(n int64) string { return fmt.Sprintf("j-%06d", n) }

// idNum returns the number of job ID id, 0 for an ID of no number.
func idNum(id string) int64 {
	n, _ := strconv.ParseInt(strings.TrimPrefix(id, "j-"), 10, 64)
	return n
}

// Get returns the job with the given id: false for an ID never issued,
// and for a job that has left the registry.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel requests cancellation of the job with the given id: queued
// cells are dropped, running cells finish and publish their results. It
// returns ErrNotFound for an ID not in the registry; cancelling a job
// that is terminal or already cancelled changes nothing. With a journal
// the cancellation is journaled before it takes effect, so no follower
// sees one that a restart would undo: when the append fails, Cancel
// returns the error and the job runs on.
//
// The check, the append and the change all happen under the job's
// journaling lock, so a cancel racing the job's last completion reaches
// the journal in the order it took effect in, and replay reads it as the
// live job had it.
func (m *Manager) Cancel(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	j.journaling.Lock()
	defer j.journaling.Unlock()
	j.mu.Lock()
	idle := j.state.Terminal() || j.cancelled
	j.mu.Unlock()
	if idle {
		return j, nil
	}
	e := Entry{Op: opCancel, Job: id}
	if err := m.journalAppend(e); err != nil {
		return j, fmt.Errorf("jobs: journal cancel: %w", err)
	}
	j.mu.Lock()
	_, dropped, finished := m.apply(j, e, &live{now: m.cfg.Now()})
	j.broadcast()
	j.mu.Unlock()
	if !m.closed {
		m.queued -= dropped
	}
	m.cancelled++
	if finished {
		m.journalAppend(Entry{Op: opEnd, Job: id, State: StateCancelled})
		m.jobFinishedLocked(j)
	}
	return j, nil
}

// Close stops the scheduler: queued cells are discarded and workers
// exit; cells already running finish (and publish) in the background.
// With a journal the discarded cells' jobs persist, and a restart
// finishes them; for a clean shutdown call Drain first. The journal is
// closed, so a cell still running fails its completion append (counted)
// and re-runs on recovery.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.heap = nil
	m.queued = 0
	m.cond.Broadcast()
	m.mu.Unlock()
	if m.cfg.Journal != nil {
		m.cfg.Journal.Close()
	}
}

// Drain begins graceful shutdown and blocks until every running cell
// has finished (and journaled) or ctx expires. While draining, workers
// stop popping the queue — queued cells stay in the heap, and with a
// journal their submissions are already durable, so they resume after
// restart — and Submit fails with ErrDraining. After a complete drain
// the journal is checkpointed, so the next boot replays one compact
// snapshot instead of the full append history. Drain returns ctx.Err()
// when the grace period expires first; the journal still holds
// everything needed to recover the unfinished cells.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.drainStarted)
		m.cond.Broadcast()
	}
	stop := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer stop()
	for m.running > 0 && ctx.Err() == nil && !m.closed {
		m.cond.Wait()
	}
	err := ctx.Err()
	if err == nil {
		m.checkpointLocked()
	}
	m.mu.Unlock()
	return err
}

// Draining returns a channel closed when graceful shutdown begins, so a
// caller waiting for a job can stop waiting for cells the drain leaves
// queued.
func (m *Manager) Draining() <-chan struct{} { return m.drainStarted }

// checkpointLocked compacts the journal down to a snapshot of the
// registry. Called with mu held, which keeps submissions and cancels out;
// every job's journaling lock, held from the snapshot to the rewrite,
// keeps cell completions out, so the rewrite drops no record it lacks.
func (m *Manager) checkpointLocked() {
	if m.cfg.Journal == nil {
		return
	}
	for _, j := range m.jobs {
		j.journaling.Lock()
	}
	if err := m.cfg.Journal.Compact(m.snapshotEntriesLocked()); err != nil {
		m.journalErrs.Add(1)
	}
	for _, j := range m.jobs {
		j.journaling.Unlock()
	}
}

// maybeCompactLocked compacts once the journal has accumulated enough
// history that a snapshot would shrink it substantially: at least 64
// records and at least 8× the registry's job count (a snapshot is one
// record per job), which the retention bound keeps bounded. Called with
// mu held.
func (m *Manager) maybeCompactLocked() {
	if m.cfg.Journal == nil {
		return
	}
	if st := m.cfg.Journal.Stats(); st.Records >= 64 && st.Records >= 8*len(m.jobs) {
		m.checkpointLocked()
	}
}

// snapshotEntriesLocked folds the registry into one opSnap entry per
// job: the finished queue in finish order, then the rest in ID order, so
// a replay retains what the registry retains and requeues in submission
// order. When the highest ID issued has left the registry, an opLastID
// entry leads, so a replay never issues it again. Called with mu held.
func (m *Manager) snapshotEntriesLocked() []Entry {
	entries := make([]Entry, 0, len(m.jobs)+1)
	if last := jobID(m.nextID); m.nextID > 0 && m.jobs[last] == nil {
		entries = append(entries, Entry{Op: opLastID, Job: last})
	}
	for _, j := range m.finished {
		entries = append(entries, j.snapEntry())
	}
	rest := make([]*Job, 0, len(m.jobs)-len(m.finished))
	for _, j := range m.jobs {
		if !j.retired {
			rest = append(rest, j)
		}
	}
	sortByID(rest)
	for _, j := range rest {
		entries = append(entries, j.snapEntry())
	}
	return entries
}

// sortByID sorts jobs by the number of their IDs, the submission order.
func sortByID(jobs []*Job) {
	slices.SortFunc(jobs, func(a, b *Job) int { return cmp.Compare(idNum(a.id), idNum(b.id)) })
}

// snapEntry folds the job's journaled history into one opSnap record.
// Every job of a journaled manager has its wire cells: Submit and
// recovery set them.
func (j *Job) snapEntry() Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	e := Entry{Op: opSnap, Job: j.id, Client: j.client, Created: wallTime(j.created),
		Cells: j.wire, Cancelled: j.cancelled, Sync: j.sync}
	if j.state.Terminal() {
		e.State = j.state
	}
	for _, i := range j.order {
		op := CellOp{Cell: int(i)}
		if j.cellState[i] == cellFailed {
			op.Err = j.cellErrs[i]
		}
		e.Ops = append(e.Ops, op)
	}
	return e
}

// journalAppend durably appends one entry, counting a failure. Without a
// journal it does nothing.
func (m *Manager) journalAppend(e Entry) error {
	if m.cfg.Journal == nil {
		return nil
	}
	err := m.cfg.Journal.Append(e)
	if err != nil {
		m.journalErrs.Add(1)
	}
	return err
}

// jobFinishedLocked records a job reaching a terminal state: recovered
// jobs decrement the recovering count and are excluded from the
// latency percentiles (their latency would measure the outage, not the
// scheduler); fresh jobs record their submit-to-finish latency. Then it
// retires the job. Called with mu held, by the goroutine that finalized j.
func (m *Manager) jobFinishedLocked(j *Job) {
	if j.recovered {
		m.recoveredPending--
	} else {
		m.recordLatencyLocked(float64(j.finished-j.created) / 1e9)
	}
	m.retireLocked(j)
}

// retireLocked applies the retention bound to j, which just turned
// terminal: a sync job leaves the registry at once; any other joins the
// finished queue, from whose head every job leaves that retainedCells
// cells of later-finishing jobs have followed. Called with mu held.
func (m *Manager) retireLocked(j *Job) {
	j.retired = true
	if j.sync {
		m.evictLocked(j)
		return
	}
	m.finished = append(m.finished, j)
	m.finishedCells += len(j.cellState)
	for m.finishedCells-len(m.finished[0].cellState) >= retainedCells {
		old := m.finished[0]
		m.finished[0] = nil
		m.finished = m.finished[1:]
		m.finishedCells -= len(old.cellState)
		m.evictLocked(old)
	}
}

// evictLocked removes terminal job j from the registry. Called with mu
// held.
func (m *Manager) evictLocked(j *Job) {
	delete(m.jobs, j.id)
	m.registryCells -= len(j.cellState)
	m.evicted++
	j.detach(m.cfg.Results)
}

// worker pops the cheapest batch and executes its runnable cells
// together, forever. While the manager drains, workers idle instead of
// popping — the heap is preserved for the journal checkpoint — and
// running cells finish normally.
func (m *Manager) worker() {
	var shared []*shift.SharedResult // completeCells' scratch, reused batch to batch
	for {
		m.mu.Lock()
		for (len(m.heap) == 0 || m.draining) && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		it := m.heap.pop()
		j := it.job
		cells := j.startCells(it.cells, m.cfg.Now())
		if len(cells) == 0 {
			m.mu.Unlock()
			continue
		}
		m.queued -= len(cells)
		m.running += len(cells)
		m.batches++
		m.batchCells += int64(len(cells))
		m.mu.Unlock()
		rs, errs := m.cfg.RunBatch(j.batchCells(cells))
		// Every member has its own outcome: a transient failure goes back on
		// the queue alone, everything else is journaled cell by cell and
		// published together.
		settled := 0
		for k, i := range cells {
			if errs[k] != nil && m.cfg.Retries > 0 && retry.Transient(errs[k]) && m.requeue(j, i) {
				continue
			}
			cells[settled], rs[settled], errs[settled] = i, rs[k], errs[k]
			settled++
		}
		finished := false
		if settled > 0 {
			shared = slices.Grow(shared[:0], settled)[:settled]
			finished = m.completeCells(j, cells[:settled], rs, errs, shared)
		}
		m.mu.Lock()
		m.running -= settled
		if finished {
			m.jobFinishedLocked(j)
		}
		m.maybeCompactLocked()
		if m.running == 0 {
			m.cond.Broadcast() // wake a Drain waiter
		}
		m.mu.Unlock()
	}
}

// completeCells journals the outcome of each of cells (rs and errs are
// index-aligned with it; the results are in the store already), applies
// them with one wake-up for the followers, each success pointing at its
// shared result (shared is scratch of the same length), and journals the
// end of a job that finalized, which it reports. It holds the job's
// journaling lock throughout and must not be called with mu held. A
// completion is the one change applied even when its append fails
// (counted): a restart re-runs the cell, which reproduces its bytes.
func (m *Manager) completeCells(j *Job, cells []int, rs []shift.RunResult, errs []error, shared []*shift.SharedResult) (finished bool) {
	// A running cell's config is read without the job's lock (see
	// Job.cells).
	for k, i := range cells {
		shared[k] = nil
		if errs[k] == nil {
			shared[k] = m.cfg.Results.Share(j.cells[i].Key(), &rs[k])
		}
	}
	j.journaling.Lock()
	defer j.journaling.Unlock()
	if m.cfg.Journal != nil {
		for k, i := range cells {
			m.journalAppend(cellEntry(j.id, i, errs[k]))
		}
	}
	now := m.cfg.Now()
	j.mu.Lock()
	for k, i := range cells {
		_, _, done := m.apply(j, cellEntry(j.id, i, errs[k]), &live{result: shared[k], now: now})
		finished = finished || done
	}
	j.broadcast()
	state := j.state
	j.mu.Unlock()
	if finished {
		m.journalAppend(Entry{Op: opEnd, Job: j.id, State: state})
	}
	return finished
}

// cellEntry is the opCell record of job id's cell i with outcome err,
// which gets a message if it has none: the record reads none as success.
func cellEntry(id string, i int, err error) Entry {
	e := Entry{Op: opCell, Job: id, Cell: i}
	if err != nil {
		e.Err = cmp.Or(err.Error(), "jobs: cell failed")
	}
	return e
}

// requeue puts a transiently-failed running cell back on the queue, as
// a batch of one, consuming one of its retry attempts. It refuses — so
// the failure is recorded normally — when the cell's attempts are
// exhausted, the job was cancelled, or the manager is closed. Requeue is
// allowed during a drain: the cell re-enters the heap, is checkpointed
// as unresolved, and re-runs after restart. Locks nest Manager.mu →
// Job.mu, the same order the worker's pop-then-start path uses; Job.mu
// is held through the enqueue, so a Cancel cannot drop the cell and
// finalize the job before its config is read.
func (m *Manager) requeue(j *Job, i int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.attempts == nil {
		j.attempts = make([]int, len(j.cellState))
	}
	if j.cancelled || j.cellState[i] != cellRunning || j.attempts[i] >= m.cfg.Retries {
		return false
	}
	j.attempts[i]++
	j.cellState[i] = cellQueued
	j.running--
	m.enqueueLocked(j, []int{i})
	m.retried++
	m.running--
	m.cond.Broadcast()
	return true
}

// recordLatencyLocked adds one completed-job latency to the ring.
// Called with mu held.
func (m *Manager) recordLatencyLocked(lat float64) {
	if len(m.latencies) < latencyRing {
		m.latencies = append(m.latencies, lat)
	} else {
		m.latencies[m.latPos] = lat
		m.latPos = (m.latPos + 1) % latencyRing
	}
	m.latCount++
	m.latSum += lat
}

// Stats is a point-in-time snapshot of the manager's counters, served
// by shiftd's /v1/stats and /v1/metrics.
type Stats struct {
	// QueueDepth is the number of queued runnable cells (stale entries
	// for cancelled cells excluded).
	QueueDepth int
	// Batches counts the batches workers have started — a job's cells
	// that share a record stream run as one — and BatchCells the cells
	// in them, so BatchCells/Batches is the mean number of cells a
	// stream generation served.
	Batches, BatchCells int64
	// Admitted counts jobs accepted into the queue.
	Admitted int64
	// Rejected counts submissions refused by admission control, the
	// queue bound or a drain.
	Rejected int64
	// Cancelled counts jobs whose cancellation took effect.
	Cancelled int64
	// Retried counts cell re-enqueues by the transient-retry policy
	// (one per consumed attempt, across all jobs).
	Retried int64
	// Evicted counts terminal jobs that have left the registry: a sync
	// job when it turned terminal, any other once retainedCells cells of
	// later-finishing jobs had finished.
	Evicted int64
	// Running is the number of cells currently executing in workers.
	Running int
	// Draining reports that graceful shutdown has begun.
	Draining bool
	// Recovering is the number of recovered jobs that have not reached
	// a terminal state since restart.
	Recovering int
	// JournalErrors counts journal writes that failed: a refused
	// submission or cancellation, which did not take effect, or a cell
	// completion, which did, and whose cell re-runs on the next recovery.
	JournalErrors int64
	// Retained is the number of jobs the registry holds, RetainedCells
	// their cells (the finished among them fewer than retainedCells plus
	// one job's), and SharedResults the distinct results those cells
	// point at, so RetainedCells/SharedResults is the registry's
	// deduplication ratio.
	Retained, RetainedCells, SharedResults int
	// LatencyCount and LatencySum aggregate submit-to-finish latencies
	// (seconds) over every job that reached a terminal state. A job's
	// latency is recorded just after its terminal event, so a reader
	// woken by that event can see the counters before the job is in
	// them.
	LatencyCount int64
	// LatencySum is the sum of those latencies in seconds.
	LatencySum float64
	// LatencyP50, LatencyP90, and LatencyP99 are percentile latencies
	// in seconds over the most recent completed jobs (up to 1024).
	LatencyP50, LatencyP90, LatencyP99 float64
}

// Stats returns a snapshot of the manager's counters. The latency ring
// is copied under the scheduler lock and sorted after releasing it.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	s := Stats{
		QueueDepth:    m.queued,
		Batches:       m.batches,
		BatchCells:    m.batchCells,
		Admitted:      m.admitted,
		Rejected:      m.rejected,
		Cancelled:     m.cancelled,
		Retried:       m.retried,
		Evicted:       m.evicted,
		Running:       m.running,
		Draining:      m.draining,
		Recovering:    m.recoveredPending,
		JournalErrors: m.journalErrs.Load(),
		Retained:      len(m.jobs),
		RetainedCells: m.registryCells,
		LatencyCount:  m.latCount,
		LatencySum:    m.latSum,
	}
	sorted := append([]float64(nil), m.latencies...)
	m.mu.Unlock()
	s.SharedResults = m.cfg.Results.Shared()
	sort.Float64s(sorted)
	s.LatencyP50 = percentile(sorted, 0.50)
	s.LatencyP90 = percentile(sorted, 0.90)
	s.LatencyP99 = percentile(sorted, 0.99)
	return s
}

// Recovery returns the recovery counters from the journal replay at
// Open (all zero without a journal or on a fresh state dir).
func (m *Manager) Recovery() RecoveryStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovery
}

// JournalStats reports the journal's current footprint; ok is false
// when no journal is configured.
func (m *Manager) JournalStats() (st JournalStats, ok bool) {
	if m.cfg.Journal == nil {
		return JournalStats{}, false
	}
	return m.cfg.Journal.Stats(), true
}

// percentile returns the nearest-rank q-percentile of sorted samples (0
// when empty).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}
