package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"shift"
)

// testCell builds a cell whose estimated cost is (warm+meas) for one
// core, so tests can order the SJF queue precisely.
func testCell(workload string, meas int64) shift.Cell {
	return shift.Cell{
		Label: workload,
		Config: shift.Config{
			Workload:       workload,
			Cores:          1,
			WarmupRecords:  1,
			MeasureRecords: meas,
		},
	}
}

// blockingRunner records the workload of each started cell and blocks
// until released, one token per call.
type blockingRunner struct {
	started chan string
	release chan struct{}
	fail    map[string]bool
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{
		started: make(chan string, 64),
		release: make(chan struct{}, 64),
	}
}

func (b *blockingRunner) run(cfg shift.Config) (shift.RunResult, error) {
	b.started <- cfg.Workload
	<-b.release
	if b.fail[cfg.Workload] {
		return shift.RunResult{}, errors.New("boom: " + cfg.Workload)
	}
	return shift.RunResult{MPKI: float64(cfg.MeasureRecords)}, nil
}

func (b *blockingRunner) awaitStart(t *testing.T) string {
	t.Helper()
	select {
	case w := <-b.started:
		return w
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a cell to start")
		return ""
	}
}

// waitTerminal follows the job's event log until the end event.
func waitTerminal(t *testing.T, j *Job) []Event {
	t.Helper()
	deadline := time.After(5 * time.Second)
	var all []Event
	n := 0
	for {
		evs, terminal, changed := j.EventsSince(n)
		all = append(all, evs...)
		n += len(evs)
		if terminal {
			return all
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("timed out waiting for job %s to finish (state %v)", j.ID(), j.Snapshot().State)
		}
	}
}

func TestSJFOrder(t *testing.T) {
	r := newBlockingRunner()
	m := New(Config{Workers: 1, Run: r.run})
	defer m.Close()

	// Occupy the single worker so subsequent submissions queue up.
	plug, err := m.Submit([]shift.Cell{testCell("plug", 100)})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.awaitStart(t); got != "plug" {
		t.Fatalf("first start = %q, want plug", got)
	}

	// Submit most-expensive-first; SJF must start them cheapest-first.
	for _, c := range []struct {
		w    string
		meas int64
	}{{"big", 90000}, {"mid", 50000}, {"small", 10000}} {
		if _, err := m.Submit([]shift.Cell{testCell(c.w, c.meas)}); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"small", "mid", "big"}
	for i := 0; i < 4; i++ {
		r.release <- struct{}{}
	}
	for _, w := range want {
		if got := r.awaitStart(t); got != w {
			t.Fatalf("start order: got %q, want %q", got, w)
		}
	}
	waitTerminal(t, plug)
}

func TestEqualCostIsFIFO(t *testing.T) {
	r := newBlockingRunner()
	m := New(Config{Workers: 1, Run: r.run})
	defer m.Close()

	if _, err := m.Submit([]shift.Cell{testCell("plug", 100)}); err != nil {
		t.Fatal(err)
	}
	r.awaitStart(t)
	for _, w := range []string{"first", "second", "third"} {
		c := testCell(w, 1000)
		c.Config.Seed = int64(len(w)) // distinct keys, equal cost
		if _, err := m.Submit([]shift.Cell{c}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		r.release <- struct{}{}
	}
	for _, w := range []string{"first", "second", "third"} {
		if got := r.awaitStart(t); got != w {
			t.Fatalf("equal-cost start order: got %q, want %q", got, w)
		}
	}
}

func TestJobLifecycleAndEvents(t *testing.T) {
	r := newBlockingRunner()
	m := New(Config{Workers: 1, Run: r.run})
	defer m.Close()

	// The one worker is held inside another job's cell until the fresh
	// job's snapshot has been checked: it cannot have started it.
	if _, err := m.Submit([]shift.Cell{testCell("plug", 100)}); err != nil {
		t.Fatal(err)
	}
	r.awaitStart(t)
	j, err := m.Submit([]shift.Cell{testCell("a", 1000), testCell("b", 2000)})
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Snapshot(); st.State != StateQueued || st.Cells != 2 {
		t.Fatalf("fresh snapshot = %+v, want queued with 2 cells", st)
	}
	for i := 0; i < 3; i++ {
		r.release <- struct{}{}
	}
	evs := waitTerminal(t, j)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3 (2 cells + end): %+v", len(evs), evs)
	}
	// SJF runs "a" (cheaper) first; events arrive in completion order.
	if evs[0].Type != EventCell || evs[0].Index != 0 || evs[0].Label != "a" {
		t.Fatalf("event 0 = %+v, want cell 0 (a)", evs[0])
	}
	if evs[1].Type != EventCell || evs[1].Index != 1 {
		t.Fatalf("event 1 = %+v, want cell 1", evs[1])
	}
	if evs[2].Type != EventEnd || evs[2].State != StateDone {
		t.Fatalf("event 2 = %+v, want end/done", evs[2])
	}
	st := j.Snapshot()
	if st.State != StateDone || st.Completed != 2 || st.Failed != 0 {
		t.Fatalf("final snapshot = %+v, want done with 2 completed", st)
	}
	if st.Results[0].MPKI != 1000 || st.Results[1].MPKI != 2000 {
		t.Fatalf("results landed out of slot: %+v", st.Results)
	}
	if st.Started.IsZero() || st.Finished.IsZero() {
		t.Fatal("missing lifecycle timestamps")
	}
	// Replay from the start returns the full log again.
	replay, terminal, _ := j.EventsSince(0)
	if !terminal || len(replay) != 3 {
		t.Fatalf("replay: terminal=%v events=%d, want true/3", terminal, len(replay))
	}
}

func TestFailedCellFailsJob(t *testing.T) {
	r := newBlockingRunner()
	r.fail = map[string]bool{"bad": true}
	m := New(Config{Workers: 1, Run: r.run})
	defer m.Close()

	j, err := m.Submit([]shift.Cell{testCell("bad", 1000), testCell("good", 2000)})
	if err != nil {
		t.Fatal(err)
	}
	r.release <- struct{}{}
	r.release <- struct{}{}
	evs := waitTerminal(t, j)
	if evs[len(evs)-1].State != StateFailed {
		t.Fatalf("end state = %v, want failed", evs[len(evs)-1].State)
	}
	st := j.Snapshot()
	if st.Completed != 1 || st.Failed != 1 {
		t.Fatalf("snapshot = %+v, want 1 completed 1 failed", st)
	}
	if st.CellErrs[0] == "" || st.CellErrs[1] != "" {
		t.Fatalf("cell errors = %q, want error only at index 0", st.CellErrs)
	}
}

func TestCancelDropsQueuedFinishesRunning(t *testing.T) {
	r := newBlockingRunner()
	m := New(Config{Workers: 1, Run: r.run})
	defer m.Close()

	// Cell 0 is cheapest, so the single worker picks it first and the
	// other two stay queued.
	j, err := m.Submit([]shift.Cell{
		testCell("running", 1000),
		testCell("queued1", 2000),
		testCell("queued2", 3000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.awaitStart(t); got != "running" {
		t.Fatalf("started %q, want running", got)
	}

	got, err := m.Cancel(j.ID())
	if err != nil || got != j {
		t.Fatalf("Cancel = %v, %v; want the job", got, err)
	}
	st := j.Snapshot()
	if !st.CancelRequested || st.Dropped != 2 || st.State.Terminal() {
		t.Fatalf("post-cancel snapshot = %+v, want 2 dropped, not yet terminal", st)
	}
	// Cancelling again is a no-op.
	if _, err := m.Cancel(j.ID()); err != nil {
		t.Fatalf("second Cancel: %v", err)
	}
	if s := m.Stats(); s.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1 (second cancel is a no-op)", s.Cancelled)
	}

	// The running cell finishes and publishes; then the job finalizes.
	r.release <- struct{}{}
	evs := waitTerminal(t, j)
	if evs[len(evs)-1].State != StateCancelled {
		t.Fatalf("end state = %v, want cancelled", evs[len(evs)-1].State)
	}
	st = j.Snapshot()
	if st.Completed != 1 || st.Dropped != 2 || !st.Done[0] {
		t.Fatalf("final snapshot = %+v, want the running cell completed", st)
	}

	// The dropped cells' stale heap entries are reaped; the queue
	// drains to empty.
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().QueueDepth != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth stuck at %d", m.Stats().QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCancelQueuedJobFinalizesImmediately(t *testing.T) {
	r := newBlockingRunner()
	m := New(Config{Workers: 1, Run: r.run})
	defer m.Close()

	// Occupy the worker so the target job never starts.
	if _, err := m.Submit([]shift.Cell{testCell("plug", 100)}); err != nil {
		t.Fatal(err)
	}
	r.awaitStart(t)
	j, err := m.Submit([]shift.Cell{testCell("a", 1000), testCell("b", 2000)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	st := j.Snapshot()
	if st.State != StateCancelled || st.Dropped != 2 {
		t.Fatalf("snapshot = %+v, want immediately cancelled with 2 dropped", st)
	}
	evs, terminal, _ := j.EventsSince(0)
	if !terminal || len(evs) != 1 || evs[0].Type != EventEnd {
		t.Fatalf("events = %+v, want just the end event", evs)
	}
	r.release <- struct{}{}
}

func TestQueueBound(t *testing.T) {
	r := newBlockingRunner()
	m := New(Config{Workers: 1, MaxQueue: 2, Run: r.run})
	defer m.Close()

	if _, err := m.Submit([]shift.Cell{testCell("plug", 100)}); err != nil {
		t.Fatal(err)
	}
	r.awaitStart(t) // the plug cell left the queue and occupies the worker
	if _, err := m.Submit([]shift.Cell{testCell("a", 1000), testCell("b", 2000)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit([]shift.Cell{testCell("c", 3000)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit error = %v, want ErrQueueFull", err)
	}
	if s := m.Stats(); s.Rejected != 1 || s.QueueDepth != 2 {
		t.Fatalf("stats = %+v, want 1 rejected, depth 2", s)
	}
	for i := 0; i < 3; i++ {
		r.release <- struct{}{}
	}
}

func TestSubmitAfterClose(t *testing.T) {
	m := New(Config{Workers: 1, Run: func(shift.Config) (shift.RunResult, error) {
		return shift.RunResult{}, nil
	}})
	m.Close()
	if _, err := m.Submit([]shift.Cell{testCell("a", 1)}); !errors.Is(err, errClosed) {
		t.Fatalf("submit after close = %v, want errClosed", err)
	}
	if _, err := m.Submit(nil); err == nil {
		t.Fatal("empty submit succeeded, want error")
	}
}

// TestAdmitCountsRejections: SubmitFrom charges the client's bucket a
// token per cell and refuses, counting each refusal, a job larger than
// the burst (never admitted) and one the bucket cannot pay for now (with
// a Retry-After). A refusal charges nothing: a client refused by the
// queue bound still has its whole burst once the queue frees.
func TestAdmitCountsRejections(t *testing.T) {
	now := time.Unix(1000, 0)
	r := newBlockingRunner()
	m := New(Config{Workers: 1, MaxQueue: 3, Rate: 1, Burst: 2, Run: r.run, Now: func() time.Time { return now }})
	defer m.Close()
	two := []shift.Cell{testCell("a", 1000), testCell("b", 2000)}
	three := append(two, testCell("c", 3000))
	var ae *AdmissionError
	if _, err := m.SubmitFrom("c1", three); !errors.As(err, &ae) || !ae.Never {
		t.Fatalf("oversized submit = %v, want an AdmissionError that never admits", err)
	}
	if _, err := m.SubmitFrom("c1", two); err != nil {
		t.Fatalf("first submit = %v, want admitted", err)
	}
	r.awaitStart(t) // one cell runs, one stays queued
	if _, err := m.SubmitFrom("c1", two[:1]); !errors.As(err, &ae) || ae.Never || ae.RetryAfter < time.Second {
		t.Fatalf("drained submit = %v, want an AdmissionError with Retry-After >= 1s", err)
	}
	if _, err := m.SubmitFrom("c2", three); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit over the queue bound = %v, want ErrQueueFull", err)
	}
	r.release <- struct{}{}
	r.release <- struct{}{}
	waitFor(t, func() bool { s := m.Stats(); return s.QueueDepth == 0 && s.Running == 0 })
	if _, err := m.SubmitFrom("c2", two); err != nil {
		t.Fatalf("the refused client's full burst after the queue freed = %v, want admitted", err)
	}
	if s := m.Stats(); s.Admitted != 2 || s.Rejected != 3 {
		t.Fatalf("Admitted = %d, Rejected = %d, want 2 and 3", s.Admitted, s.Rejected)
	}
	r.release <- struct{}{}
	r.release <- struct{}{}
}

func TestLatencyStats(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	r := newBlockingRunner()
	m := New(Config{Workers: 1, Run: r.run, Now: clock})
	defer m.Close()

	j, err := m.Submit([]shift.Cell{testCell("a", 1000)})
	if err != nil {
		t.Fatal(err)
	}
	r.awaitStart(t)
	now = now.Add(3 * time.Second)
	r.release <- struct{}{}
	waitTerminal(t, j)
	s := m.Stats()
	if s.LatencyCount != 1 || s.LatencySum != 3 || s.LatencyP50 != 3 {
		t.Fatalf("latency stats = %+v, want count 1, sum 3, p50 3", s)
	}
}

func TestPercentile(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		q, want float64
	}{{0.50, 50}, {0.90, 90}, {0.99, 99}, {1.0, 100}} {
		if got := percentile(samples, tc.q); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

func TestEstimateCostPrefersSampled(t *testing.T) {
	exact := shift.Config{Cores: 4, WarmupRecords: 60000, MeasureRecords: 60000}
	sampled := exact
	sampled.Sampling = shift.Sampling{Period: 10}
	ce, cs := estimateCost(exact), estimateCost(sampled)
	if cs >= ce {
		t.Fatalf("sampled cost %g >= exact cost %g; SJF would not prefer probes", cs, ce)
	}
	if cs <= 0 || ce != 120000*4 {
		t.Fatalf("unexpected costs: sampled %g exact %g", cs, ce)
	}
}

// flakyRunner fails each cell a configured number of times before
// succeeding, recording total calls per workload.
type flakyRunner struct {
	mu       sync.Mutex
	failures map[string]int // remaining failures per workload
	calls    map[string]int
	err      error
}

func newFlakyRunner(err error, failures map[string]int) *flakyRunner {
	return &flakyRunner{failures: failures, calls: make(map[string]int), err: err}
}

func (f *flakyRunner) run(cfg shift.Config) (shift.RunResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls[cfg.Workload]++
	if f.failures[cfg.Workload] > 0 {
		f.failures[cfg.Workload]--
		return shift.RunResult{}, f.err
	}
	return shift.RunResult{MPKI: float64(cfg.MeasureRecords)}, nil
}

func (f *flakyRunner) callCount(workload string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[workload]
}

func TestTransientRetryRecoversCell(t *testing.T) {
	transient := &shift.TimeoutError{Timeout: time.Millisecond, Cells: 1}
	r := newFlakyRunner(transient, map[string]int{"flaky": 2})
	m := New(Config{
		Workers: 2,
		Run:     r.run,
		Retries: 3,
	})
	defer m.Close()

	j, err := m.Submit([]shift.Cell{testCell("flaky", 10), testCell("steady", 20)})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	st := j.Snapshot()
	if st.State != StateDone {
		t.Fatalf("state = %v, want done (cell errs %v)", st.State, st.CellErrs)
	}
	if got := r.callCount("flaky"); got != 3 {
		t.Fatalf("flaky cell ran %d times, want 3 (2 failures + 1 success)", got)
	}
	if got := m.Stats().Retried; got != 2 {
		t.Fatalf("Stats.Retried = %d, want 2", got)
	}
}

func TestTransientRetryExhaustsAttempts(t *testing.T) {
	transient := &shift.TimeoutError{Timeout: time.Millisecond, Cells: 1}
	r := newFlakyRunner(transient, map[string]int{"doomed": 100})
	m := New(Config{
		Workers: 1,
		Run:     r.run,
		Retries: 2,
	})
	defer m.Close()

	j, err := m.Submit([]shift.Cell{testCell("doomed", 10)})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	st := j.Snapshot()
	if st.State != StateFailed {
		t.Fatalf("state = %v, want failed", st.State)
	}
	if got := r.callCount("doomed"); got != 3 {
		t.Fatalf("doomed cell ran %d times, want 3 (initial + 2 retries)", got)
	}
	if st.CellErrs[0] == "" {
		t.Fatal("exhausted cell should record its error")
	}
	if got := m.Stats().Retried; got != 2 {
		t.Fatalf("Stats.Retried = %d, want 2", got)
	}
}

func TestDeterministicErrorsAreNotRetried(t *testing.T) {
	r := newFlakyRunner(errors.New("bad config"), map[string]int{"broken": 100})
	m := New(Config{
		Workers: 1,
		Run:     r.run,
		Retries: 5,
	})
	defer m.Close()

	j, err := m.Submit([]shift.Cell{testCell("broken", 10)})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if st := j.Snapshot(); st.State != StateFailed {
		t.Fatalf("state = %v, want failed", st.State)
	}
	if got := r.callCount("broken"); got != 1 {
		t.Fatalf("deterministic failure ran %d times, want 1", got)
	}
	if got := m.Stats().Retried; got != 0 {
		t.Fatalf("Stats.Retried = %d, want 0", got)
	}
}

func TestCancelledJobIsNotRequeued(t *testing.T) {
	b := newBlockingRunner()
	b.fail = map[string]bool{"w": true}
	run := func(cfg shift.Config) (shift.RunResult, error) {
		if _, err := b.run(cfg); err != nil {
			return shift.RunResult{}, &shift.TimeoutError{Timeout: time.Millisecond, Cells: 1}
		}
		return shift.RunResult{}, nil
	}
	m := New(Config{Workers: 1, Run: run, Retries: 5})
	defer m.Close()

	j, err := m.Submit([]shift.Cell{testCell("w", 10)})
	if err != nil {
		t.Fatal(err)
	}
	b.awaitStart(t)
	if _, err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	b.release <- struct{}{}
	waitTerminal(t, j)
	if st := j.Snapshot(); st.State != StateCancelled {
		t.Fatalf("state = %v, want cancelled", st.State)
	}
	if got := m.Stats().Retried; got != 0 {
		t.Fatalf("Stats.Retried = %d, want 0: cancelled cells must not requeue", got)
	}
}

// TestReplayedJobsShareResultsConcurrently: many equal jobs, submitted
// from several goroutines at once, run on two workers and followed and
// snapshotted while they run. Every finished cell of one key ends up
// pointing at one result and one key string, equal to what the runner
// returned, and the table holds one entry per distinct cell.
func TestReplayedJobsShareResultsConcurrently(t *testing.T) {
	const submitters, jobsEach, cellsPerJob = 4, 8, 12
	m := New(Config{Workers: 2, Burst: 1024, MaxQueue: 1024,
		Run: func(cfg shift.Config) (shift.RunResult, error) {
			return shift.RunResult{Workload: cfg.Workload, MPKI: float64(cfg.MeasureRecords)}, nil
		}})
	defer m.Close()
	cells := func() []shift.Cell {
		cs := make([]shift.Cell, cellsPerJob)
		for c := range cs {
			cs[c] = testCell(fmt.Sprintf("w-%d", c%3), int64(c+1))
		}
		return cs
	}
	var wg sync.WaitGroup
	followed := make(chan []Event, submitters*jobsEach)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < jobsEach; k++ {
				j, err := m.Submit(cells())
				if err != nil {
					t.Error(err)
					return
				}
				j.Snapshot()
				m.Stats()
				followed <- followLive(j, nil)
			}
		}()
	}
	wg.Wait()
	close(followed)

	results := map[int]*shift.RunResult{}
	keys := map[int]string{}
	n := 0
	for evs := range followed {
		n++
		if len(evs) != cellsPerJob+1 || evs[cellsPerJob].State != StateDone {
			t.Fatalf("job events = %+v, want %d cells then end/done", evs, cellsPerJob)
		}
		for _, ev := range evs[:cellsPerJob] {
			want := shift.RunResult{Workload: fmt.Sprintf("w-%d", ev.Index%3), MPKI: float64(ev.Index + 1)}
			if ev.Result == nil || *ev.Result != want {
				t.Fatalf("cell %d result = %+v, want %+v", ev.Index, ev.Result, want)
			}
			if first, ok := results[ev.Index]; !ok {
				results[ev.Index], keys[ev.Index] = ev.Result, ev.Key
			} else if ev.Result != first || unsafe.StringData(ev.Key) != unsafe.StringData(keys[ev.Index]) {
				t.Errorf("cell %d: a replayed job holds its own result or key, not the shared one", ev.Index)
			}
		}
	}
	st := m.Stats()
	if n != submitters*jobsEach || st.Retained != n || st.RetainedCells != n*cellsPerJob || st.SharedResults != cellsPerJob {
		t.Errorf("%d jobs followed; stats retained %d jobs, %d cells, %d shared results; want %d, %d, %d",
			n, st.Retained, st.RetainedCells, st.SharedResults, submitters*jobsEach, submitters*jobsEach*cellsPerJob, cellsPerJob)
	}
}

// TestUnequalResultsAreNotShared: a result that is not == the table's
// entry for its key — a different value, or any NaN — gets an entry of
// its own, so no finished cell's result ever changes under it.
func TestUnequalResultsAreNotShared(t *testing.T) {
	var calls atomic.Int64
	m := New(Config{Workers: 1, Run: func(cfg shift.Config) (shift.RunResult, error) {
		if cfg.Workload == "nan" {
			return shift.RunResult{MPKI: math.NaN()}, nil
		}
		return shift.RunResult{MPKI: float64(calls.Add(1))}, nil
	}})
	defer m.Close()
	var evs [][]Event
	for k := 0; k < 3; k++ {
		j, err := m.Submit([]shift.Cell{testCell("drift", 1), testCell("nan", 2)})
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, cellEvents(waitTerminal(t, j)))
	}
	for k, e := range evs {
		if e[0].Result.MPKI != float64(k+1) || !math.IsNaN(e[1].Result.MPKI) {
			t.Errorf("job %d results = %+v, %+v; want MPKI %d and NaN", k, *e[0].Result, *e[1].Result, k+1)
		}
		for _, prev := range evs[:k] {
			if e[0].Result == prev[0].Result || e[1].Result == prev[1].Result {
				t.Errorf("job %d shares a result that is not == its own", k)
			}
		}
	}
	if got := m.Stats().SharedResults; got != 2 {
		t.Errorf("SharedResults = %d, want 2 (the first result of each key)", got)
	}

	// Through a table that is also the engine's store, which stores each
	// result before the job shares it: a NaN stored under a key is a result
	// apart from the cell's NaN, and later stores under the keys change no
	// finished cell.
	table := shift.NewResultCache()
	ms := New(Config{Workers: 1, Results: table, Run: func(cfg shift.Config) (shift.RunResult, error) {
		r := shift.RunResult{MPKI: float64(cfg.MeasureRecords)}
		if cfg.Workload == "nan" {
			r.MPKI = math.NaN()
		}
		table.Store(cfg.Key(), r)
		return r, nil
	}})
	defer ms.Close()
	drift, nan := testCell("drift", 1), testCell("nan", 2)
	j, err := ms.Submit([]shift.Cell{drift, nan})
	if err != nil {
		t.Fatal(err)
	}
	before := cellEvents(waitTerminal(t, j))
	wire, _ := json.Marshal([]shift.RunResult{*before[0].Result, *before[1].Result})
	if r, _ := table.Lookup(drift.Config.Key()); r != *before[0].Result {
		t.Errorf("the store holds %+v, the cell %+v", r, *before[0].Result)
	}
	if n, shared := table.Len(), ms.Stats().SharedResults; n != 2 || shared != 2 {
		t.Errorf("the table stores %d results and shares %d keys, want 2 and 2", n, shared)
	}
	table.Store(drift.Config.Key(), shift.RunResult{MPKI: 7})
	table.Store(nan.Config.Key(), shift.RunResult{MPKI: 8})
	if r, _ := table.Lookup(drift.Config.Key()); r.MPKI != 7 {
		t.Errorf("the store holds %v after a later Store of 7", r.MPKI)
	}
	if r, _ := table.Lookup(nan.Config.Key()); r.MPKI != 8 {
		t.Errorf("the store holds %v after a later Store of 8", r.MPKI)
	}
	after := cellEvents(waitTerminal(t, j))
	if got, _ := json.Marshal([]shift.RunResult{*after[0].Result, *after[1].Result}); !bytes.Equal(got, wire) {
		t.Errorf("a later Store changed the finished cells' bytes:\n%s\nwant\n%s", got, wire)
	}
}

// cellEvents returns a job's cell events indexed by cell.
func cellEvents(evs []Event) []Event {
	var cells []Event
	for _, ev := range evs {
		if ev.Type == EventCell {
			for len(cells) <= ev.Index {
				cells = append(cells, Event{})
			}
			cells[ev.Index] = ev
		}
	}
	return cells
}

// TestSharedResultsCompareBits: a result shares only an entry whose
// floats have its bits. == equates 0 and -0, which encode differently,
// so a cell whose own result holds -0 must not be handed the 0 of the
// entry its key has — once that entry caches its encoding, the wrong
// sign would be frozen on the wire. Every float field of a RunResult is
// compared so. And the encoding is cached only for an entry a second
// cell reuses: a result one cell produced keeps no bytes.
func TestSharedResultsCompareBits(t *testing.T) {
	var zeros atomic.Int64
	m := New(Config{Workers: 1, Run: func(cfg shift.Config) (shift.RunResult, error) {
		if cfg.Workload == "zero" && zeros.Add(1) > 1 {
			return shift.RunResult{MPKI: math.Copysign(0, -1)}, nil
		}
		return shift.RunResult{MPKI: float64(cfg.MeasureRecords)}, nil
	}})
	defer m.Close()
	var submitted []*Job
	for k := 0; k < 3; k++ {
		j, err := m.Submit([]shift.Cell{testCell("zero", 0), testCell("one", 1)})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		submitted = append(submitted, j)
	}
	// The events are rebuilt once every job is done, so the first job's
	// "one" cell sees the encoding its replays cached.
	var evs [][]Event
	for _, j := range submitted {
		evs = append(evs, cellEvents(waitTerminal(t, j)))
	}
	for k, e := range evs {
		if got := math.Signbit(e[0].Result.MPKI); got != (k > 0) {
			t.Errorf("job %d: the cell's result is %v, want the sign bit %v", k, e[0].Result.MPKI, k > 0)
		}
		if e[0].ResultJSON() != nil {
			t.Errorf("job %d: a result no cell reused holds its encoding %s", k, e[0].ResultJSON())
		}
		want, _ := json.Marshal(e[1].Result)
		if e[1].Result != evs[0][1].Result || !bytes.Equal(e[1].ResultJSON(), want) {
			t.Errorf("job %d: the replayed cell's result %p (encoded %s), want the shared %p encoded %s",
				k, e[1].Result, e[1].ResultJSON(), evs[0][1].Result, want)
		}
	}
	if evs[1][0].Result == evs[0][0].Result || evs[2][0].Result == evs[0][0].Result {
		t.Error("a result holding -0 shares the entry of 0")
	}

	// Through a table that is also the engine's store: a -0 stored under a
	// key whose entry holds 0 is an entry of its own, the cells that shared
	// the 0 keep its bytes and its encoding, and so does the -0 cell when
	// 0 is stored again.
	table := shift.NewResultCache()
	var runs atomic.Int64
	ms := New(Config{Workers: 1, Results: table, Run: func(cfg shift.Config) (shift.RunResult, error) {
		r := shift.RunResult{}
		if runs.Add(1) > 2 {
			r.MPKI = math.Copysign(0, -1)
		}
		table.Store(cfg.Key(), r)
		return r, nil
	}})
	defer ms.Close()
	cell := testCell("zero", 0)
	var js []*Job
	for k := 0; k < 3; k++ {
		j, err := ms.Submit([]shift.Cell{cell})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		js = append(js, j)
	}
	table.Store(cell.Config.Key(), shift.RunResult{})
	var got []Event
	for _, j := range js {
		got = append(got, cellEvents(waitTerminal(t, j))[0])
	}
	if got[0].Result != got[1].Result || got[2].Result == got[0].Result {
		t.Error("the two runs of 0 do not share one entry apart from the -0 run's")
	}
	for k, ev := range got {
		sign := 1.0
		if k == 2 {
			sign = -1
		}
		want, _ := json.Marshal(shift.RunResult{MPKI: math.Copysign(0, sign)})
		if b, _ := json.Marshal(ev.Result); !bytes.Equal(b, want) {
			t.Errorf("job %d: the cell's result encodes %s after later stores, want %s", k, b, want)
		}
		if ev.ResultJSON() != nil && !bytes.Equal(ev.ResultJSON(), want) {
			t.Errorf("job %d: the cell's cached encoding is %s, want %s", k, ev.ResultJSON(), want)
		}
	}
	if got[0].ResultJSON() == nil {
		t.Error("the result two cells share holds no encoding")
	}

	var fields func(typ reflect.Type, index []int)
	fields = func(typ reflect.Type, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			idx := append(append([]int(nil), index...), i)
			switch f.Type.Kind() {
			case reflect.Struct:
				fields(f.Type, idx)
			case reflect.Float32, reflect.Float64:
				var zero, negZero shift.RunResult
				reflect.ValueOf(&negZero).Elem().FieldByIndex(idx).SetFloat(math.Copysign(0, -1))
				table := shift.NewResultCache()
				if table.Share("k", &zero) == table.Share("k", &negZero) {
					t.Errorf("RunResult.%s: -0 and 0 count as the same result", f.Name)
				}
			}
		}
	}
	fields(reflect.TypeOf(shift.RunResult{}), nil)
}
