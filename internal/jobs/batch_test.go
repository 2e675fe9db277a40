package jobs

import (
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"shift"
)

// The tests below pin the batch queue: a job's cells that consume one
// record stream are one queue entry and one RunBatch call, while the
// queue bound, the counters and every outcome — result, failure, retry,
// journal record, event — stay per cell.

// streamCell is a cell of workload's stream: cells of one workload differ
// in seed only, which never splits a stream, so they batch together.
func streamCell(workload string, seed int64) shift.Cell {
	c := testCell(workload, 1000)
	c.Config.Seed = seed
	return c
}

// member names one cell of a RunBatch call.
type member struct {
	workload string
	seed     int64
}

// batchRecorder is a RunBatch that records each call's members, holds it
// until released (when gate is set), and answers each member from
// outcome (nil = success for all).
type batchRecorder struct {
	mu      sync.Mutex
	calls   [][]member
	started chan []member
	gate    chan struct{}
	outcome func(call int, m member) error
}

func newBatchRecorder(gated bool) *batchRecorder {
	b := &batchRecorder{started: make(chan []member, 64)}
	if gated {
		b.gate = make(chan struct{}, 64)
	}
	return b
}

func (b *batchRecorder) run(ks []shift.KeyedConfig) ([]shift.RunResult, []error) {
	ms := make([]member, len(ks))
	for i, k := range ks {
		c := k.Config()
		if k.Key() != c.Key() {
			panic("batchRecorder: a cell's key is not its config's")
		}
		ms[i] = member{c.Workload, c.Seed}
	}
	b.mu.Lock()
	call := len(b.calls)
	b.calls = append(b.calls, ms)
	b.mu.Unlock()
	b.started <- ms
	if b.gate != nil {
		<-b.gate
	}
	rs, errs := make([]shift.RunResult, len(ks)), make([]error, len(ks))
	for i, m := range ms {
		if b.outcome != nil {
			errs[i] = b.outcome(call, m)
		}
		if errs[i] == nil {
			rs[i] = shift.RunResult{Workload: m.workload, MPKI: float64(m.seed)}
		}
	}
	return rs, errs
}

func (b *batchRecorder) awaitStart(t *testing.T) []member {
	t.Helper()
	select {
	case ms := <-b.started:
		return ms
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a batch to start")
		return nil
	}
}

func (b *batchRecorder) recorded() [][]member {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([][]member(nil), b.calls...)
}

// heapLen is the number of entries in the queue.
func heapLen(m *Manager) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.heap)
}

// TestJobEnqueuesOneBatchPerStream: a job of two workloads × six designs
// is two queue entries — twelve cells to the queue bound and the depth
// gauge — and two RunBatch calls, each with its stream's cells in request
// order; every result lands in its own slot.
func TestJobEnqueuesOneBatchPerStream(t *testing.T) {
	r := newBatchRecorder(true)
	m := New(Config{Workers: 1, MaxQueue: 12, RunBatch: r.run})
	defer m.Close()
	if _, err := m.Submit([]shift.Cell{testCell("plug", 10)}); err != nil {
		t.Fatal(err)
	}
	r.awaitStart(t) // the one worker is held in the plug

	var cells []shift.Cell
	for seed := int64(1); seed <= 6; seed++ {
		cells = append(cells, streamCell("a", seed), streamCell("b", seed))
	}
	j, err := m.Submit(cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := heapLen(m); got != 2 {
		t.Fatalf("queue holds %d entries, want 2 (one per stream)", got)
	}
	if st := m.Stats(); st.QueueDepth != 12 {
		t.Fatalf("QueueDepth = %d, want 12: the depth counts cells", st.QueueDepth)
	}
	if _, err := m.Submit([]shift.Cell{testCell("over", 10)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("a 13th queued cell: error %v, want ErrQueueFull (the bound counts cells)", err)
	}
	for i := 0; i < 3; i++ {
		r.gate <- struct{}{}
	}
	waitTerminal(t, j)

	var wantA, wantB []member
	for seed := int64(1); seed <= 6; seed++ {
		wantA, wantB = append(wantA, member{"a", seed}), append(wantB, member{"b", seed})
	}
	if calls := r.recorded()[1:]; !reflect.DeepEqual(calls, [][]member{wantA, wantB}) {
		t.Fatalf("RunBatch calls %v, want the six cells of a, then of b", calls)
	}
	st := j.Snapshot()
	if st.State != StateDone || st.Completed != 12 {
		t.Fatalf("job = %+v, want done with 12 completed", st)
	}
	for i, res := range st.Results {
		if res.Workload != cells[i].Config.Workload || res.MPKI != float64(cells[i].Config.Seed) {
			t.Fatalf("cell %d holds %s/%v: results landed out of slot", i, res.Workload, res.MPKI)
		}
	}
	if s := m.Stats(); s.Batches != 3 || s.BatchCells != 13 || s.QueueDepth != 0 {
		t.Fatalf("Batches %d, BatchCells %d, QueueDepth %d; want 3, 13, 0", s.Batches, s.BatchCells, s.QueueDepth)
	}
}

// TestBatchDuplicateCells: the same cell twice in one job is two members
// of one batch, each with its own slot and event.
func TestBatchDuplicateCells(t *testing.T) {
	r := newBatchRecorder(false)
	m := New(Config{Workers: 1, RunBatch: r.run})
	defer m.Close()
	j, err := m.Submit([]shift.Cell{streamCell("a", 1), streamCell("a", 2), streamCell("a", 1)})
	if err != nil {
		t.Fatal(err)
	}
	evs := waitTerminal(t, j)
	if calls := r.recorded(); len(calls) != 1 || len(calls[0]) != 3 {
		t.Fatalf("RunBatch calls %v, want one call of three members", calls)
	}
	st := j.Snapshot()
	if st.State != StateDone || st.Completed != 3 || len(evs) != 4 {
		t.Fatalf("job = %+v with %d events, want done, 3 completed, 4 events", st, len(evs))
	}
	if st.Keys[0] != st.Keys[2] || st.Results[0] != st.Results[2] || st.Results[0].MPKI != 1 || st.Results[1].MPKI != 2 {
		t.Fatalf("duplicate cells disagree: keys %v results %v", st.Keys, st.Results)
	}
}

// TestBatchMemberFailsAlone: one member's error is that cell's alone —
// its batch-mates complete, each with its own event, and the job fails on
// the one cell.
func TestBatchMemberFailsAlone(t *testing.T) {
	r := newBatchRecorder(false)
	r.outcome = func(_ int, m member) error {
		if m.seed == 3 {
			return errors.New("boom")
		}
		return nil
	}
	m := New(Config{Workers: 1, RunBatch: r.run})
	defer m.Close()
	var cells []shift.Cell
	for seed := int64(1); seed <= 6; seed++ {
		cells = append(cells, streamCell("a", seed))
	}
	j, err := m.Submit(cells)
	if err != nil {
		t.Fatal(err)
	}
	evs := waitTerminal(t, j)
	st := j.Snapshot()
	if st.State != StateFailed || st.Completed != 5 || st.Failed != 1 {
		t.Fatalf("job = %+v, want failed with 5 completed and 1 failed", st)
	}
	for i := range cells {
		if failed := st.CellErrs[i] != ""; failed != (i == 2) || st.Done[i] == failed {
			t.Fatalf("cell %d: error %q, done %v", i, st.CellErrs[i], st.Done[i])
		}
	}
	if len(evs) != 7 || evs[2].Index != 2 || evs[2].Err != "boom" {
		t.Fatalf("events %+v, want six cell events in member order, the third failed, then end", evs)
	}
}

// TestCancelBetweenBatches: cancellation drops the batches that have not
// started and nothing of the one that has.
func TestCancelBetweenBatches(t *testing.T) {
	r := newBatchRecorder(true)
	m := New(Config{Workers: 1, RunBatch: r.run})
	defer m.Close()
	var cells []shift.Cell
	for _, w := range []string{"a", "b", "c"} {
		cells = append(cells, streamCell(w, 1), streamCell(w, 2))
	}
	j, err := m.Submit(cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.awaitStart(t); !reflect.DeepEqual(got, []member{{"a", 1}, {"a", 2}}) {
		t.Fatalf("first batch = %v, want the two cells of a", got)
	}
	if _, err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	if st := j.Snapshot(); st.Dropped != 4 || st.State.Terminal() {
		t.Fatalf("after cancel: %+v, want 4 dropped and the running batch outstanding", st)
	}
	r.gate <- struct{}{}
	waitTerminal(t, j)
	st := j.Snapshot()
	if st.State != StateCancelled || st.Completed != 2 || st.Dropped != 4 || !st.Done[0] || !st.Done[1] {
		t.Fatalf("job = %+v, want cancelled with the running batch's 2 cells completed", st)
	}
	// The dropped batches are reaped without running.
	waitFor(t, func() bool { return heapLen(m) == 0 })
	if calls := r.recorded(); len(calls) != 1 {
		t.Fatalf("RunBatch calls %v, want only the batch that was running", calls)
	}
	if s := m.Stats(); s.QueueDepth != 0 || s.Running != 0 {
		t.Fatalf("QueueDepth %d, Running %d after the cancelled job drained; want 0, 0", s.QueueDepth, s.Running)
	}
}

// TestTransientRetryRequeuesOneCell: a member that times out goes back
// on the queue alone — a batch of one — while its batch-mates' results
// stand; the job completes.
func TestTransientRetryRequeuesOneCell(t *testing.T) {
	r := newBatchRecorder(false)
	r.outcome = func(call int, m member) error {
		if call == 0 && m.seed == 2 {
			return &shift.TimeoutError{Timeout: time.Millisecond, Cells: 1}
		}
		return nil
	}
	m := New(Config{Workers: 1, RunBatch: r.run, Retries: 2})
	defer m.Close()
	var cells []shift.Cell
	for seed := int64(1); seed <= 6; seed++ {
		cells = append(cells, streamCell("a", seed))
	}
	j, err := m.Submit(cells)
	if err != nil {
		t.Fatal(err)
	}
	evs := waitTerminal(t, j)
	calls := r.recorded()
	if len(calls) != 2 || len(calls[0]) != 6 || !reflect.DeepEqual(calls[1], []member{{"a", 2}}) {
		t.Fatalf("RunBatch calls %v, want the batch of six, then the timed-out cell alone", calls)
	}
	st := j.Snapshot()
	if st.State != StateDone || st.Completed != 6 {
		t.Fatalf("job = %+v, want done with 6 completed", st)
	}
	// The retried cell's event lands last; no cell has two.
	if len(evs) != 7 || evs[5].Index != 1 {
		t.Fatalf("events %+v, want the retried cell's after its batch-mates'", evs)
	}
	if s := m.Stats(); s.Retried != 1 || s.Batches != 2 || s.BatchCells != 7 {
		t.Fatalf("Retried %d, Batches %d, BatchCells %d; want 1, 2, 7", s.Retried, s.Batches, s.BatchCells)
	}
}

// TestRecoveryRepartitionsHalfFinishedBatch: a crash between the journal
// records of one batch's members leaves some resolved and some not; the
// replay restores the former from the store and queues what is left of
// each stream as one batch again.
func TestRecoveryRepartitionsHalfFinishedBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	store := newMemStore()
	var cells []shift.Cell
	for seed := int64(1); seed <= 3; seed++ {
		cells = append(cells, streamCell("a", seed), streamCell("b", seed))
	}
	// The journal a process leaves that died after two of stream a's
	// three completions: cell 0 succeeded (its result is stored), cell 2
	// failed for good.
	jn := openJournal(t, path)
	for _, e := range []Entry{
		{Op: opSubmit, Job: "j-000001", Created: time.Now(), Cells: entryCells(cells)},
		{Op: opCell, Job: "j-000001", Cell: 0},
		{Op: opCell, Job: "j-000001", Cell: 2, Err: "boom"},
	} {
		if err := jn.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	jn.Close()
	store.put(cells[0].Config.Key(), shift.RunResult{Workload: "a", MPKI: 1})

	r := newBatchRecorder(false)
	m, err := Open(Config{Workers: 1, Journal: openJournal(t, path), Lookup: store.Lookup, RunBatch: r.run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if rec := m.Recovery(); rec.JobsRecovered != 1 || rec.CellsRestored != 1 || rec.CellsRequeued != 4 {
		t.Fatalf("recovery = %+v, want 1 job, 1 cell restored, 4 requeued", rec)
	}
	j, ok := m.Get("j-000001")
	if !ok {
		t.Fatal("job lost across the restart")
	}
	waitTerminal(t, j)
	// Equal cost per cell: the one cell left of a is cheaper than b's three.
	want := [][]member{{{"a", 3}}, {{"b", 1}, {"b", 2}, {"b", 3}}}
	if calls := r.recorded(); !reflect.DeepEqual(calls, want) {
		t.Fatalf("RunBatch calls %v, want %v", calls, want)
	}
	st := j.Snapshot()
	if st.State != StateFailed || st.Completed != 5 || st.Failed != 1 || st.CellErrs[2] != "boom" {
		t.Fatalf("job = %+v, want failed on the journaled failure with 5 completed", st)
	}
	for i, c := range cells {
		if i != 2 && st.Results[i].MPKI != float64(c.Config.Seed) {
			t.Fatalf("cell %d holds %+v", i, st.Results[i])
		}
	}
}
