package jobs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"shift"
)

// memStore is a ResultStore-shaped map for recovery tests.
type memStore struct {
	mu sync.Mutex
	m  map[string]shift.RunResult
}

func newMemStore() *memStore { return &memStore{m: make(map[string]shift.RunResult)} }

func (s *memStore) put(key string, r shift.RunResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = r
}

func (s *memStore) Lookup(key string) (shift.RunResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.m[key]
	return r, ok
}

// storingRunner simulates the engine contract: every successful run
// seeds the store under the cell's content address.
func storingRunner(store *memStore, fail map[string]bool) func(shift.Config) (shift.RunResult, error) {
	return func(cfg shift.Config) (shift.RunResult, error) {
		if fail != nil && fail[cfg.Workload] {
			return shift.RunResult{}, errors.New("boom: " + cfg.Workload)
		}
		r := shift.RunResult{MPKI: float64(cfg.MeasureRecords)}
		store.put(cfg.Key(), r)
		return r, nil
	}
}

func openJournal(t *testing.T, path string) Journal {
	t.Helper()
	jn, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("OpenWAL(%s): %v", path, err)
	}
	return jn
}

// TestJournalRecovery is the core durability contract: a manager dies
// with one job fully done, one partially done, and one untouched; a
// new manager over the same journal and store finishes everything,
// restores stored results without re-running them, and produces
// results bit-identical to an uninterrupted run.
func TestJournalRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	store := newMemStore()

	br := newBlockingRunner()
	m1, err := Open(Config{
		Workers: 1,
		Journal: openJournal(t, path),
		Lookup:  store.Lookup,
		Run: func(cfg shift.Config) (shift.RunResult, error) {
			r, err := br.run(cfg)
			if err == nil {
				store.put(cfg.Key(), r)
			}
			return r, err
		},
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	// Job A: one cheap cell, runs to completion.
	jA, err := m1.SubmitFrom("alice", []shift.Cell{testCell("loop", 1)})
	if err != nil {
		t.Fatal(err)
	}
	br.release <- struct{}{}
	br.awaitStart(t)
	waitTerminal(t, jA)

	// Job B: two cells; only the cheap one finishes before the "crash".
	jB, err := m1.SubmitFrom("alice", []shift.Cell{testCell("stream", 2), testCell("pointer", 500)})
	if err != nil {
		t.Fatal(err)
	}
	br.release <- struct{}{}
	br.awaitStart(t)
	waitFor(t, func() bool { return jB.Snapshot().Completed == 1 })

	// Job C: submitted, never started.
	if _, err := m1.SubmitFrom("bob", []shift.Cell{testCell("mix", 3)}); err != nil {
		t.Fatal(err)
	}

	// Crash: abandon m1 without Close or Drain — nothing is flushed
	// beyond what Append already synced. (Workers are idle; the journal
	// file is simply reopened.)
	m1.cfg.Journal.Close()

	runs := make(chan string, 16)
	m2, err := Open(Config{
		Workers: 2,
		Journal: openJournal(t, path),
		Lookup:  store.Lookup,
		Run: func(cfg shift.Config) (shift.RunResult, error) {
			runs <- cfg.Workload
			r := shift.RunResult{MPKI: float64(cfg.MeasureRecords)}
			store.put(cfg.Key(), r)
			return r, nil
		},
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()

	rec := m2.Recovery()
	if rec.JobsTerminal != 1 || rec.JobsRecovered != 2 {
		t.Fatalf("recovery = %+v, want 1 terminal + 2 recovered", rec)
	}
	if rec.CellsRestored != 2 {
		t.Fatalf("CellsRestored = %d, want 2 (job A's cell and job B's finished cell)", rec.CellsRestored)
	}
	if rec.CellsRequeued != 2 {
		t.Fatalf("CellsRequeued = %d, want 2", rec.CellsRequeued)
	}

	// Job A was reconstructed terminal with its stored result.
	gA, ok := m2.Get(jA.ID())
	if !ok {
		t.Fatalf("job %s lost across restart", jA.ID())
	}
	stA := gA.Snapshot()
	if stA.State != StateDone || stA.Results[0].MPKI != 1 {
		t.Fatalf("job A after restart: state=%v results=%v", stA.State, stA.Results)
	}

	// Jobs B and C run to completion; only the two unfinished cells are
	// re-simulated.
	gB, _ := m2.Get(jB.ID())
	waitTerminal(t, gB)
	stB := gB.Snapshot()
	if stB.State != StateDone || stB.Results[0].MPKI != 2 || stB.Results[1].MPKI != 500 {
		t.Fatalf("job B after recovery: state=%v results=%v", stB.State, stB.Results)
	}
	var rerun []string
	for len(runs) > 0 {
		rerun = append(rerun, <-runs)
	}
	for _, w := range rerun {
		if w == "stream" {
			t.Fatal("recovery re-simulated a cell whose result was in the store")
		}
	}
	waitFor(t, func() bool { return m2.Stats().Recovering == 0 })

	// New IDs never collide with journaled ones.
	jNew, err := m2.Submit([]shift.Cell{testCell("loop", 9)})
	if err != nil {
		t.Fatal(err)
	}
	if _, taken := map[string]bool{jA.ID(): true, jB.ID(): true}[jNew.ID()]; taken {
		t.Fatalf("new job reused journaled ID %s", jNew.ID())
	}
	waitTerminal(t, jNew)
	// Recovered jobs are excluded from the latency percentiles: only
	// the fresh job counts (its latency would otherwise span the
	// simulated outage). A job's latency is recorded just after its
	// terminal event, so wait for the count as for Recovering above.
	waitFor(t, func() bool { return m2.Stats().LatencyCount > 0 })
	if n := m2.Stats().LatencyCount; n != 1 {
		t.Fatalf("LatencyCount = %d, want 1 (only the fresh job)", n)
	}
}

// TestJournalRecoveryStoreMiss: a completed cell whose result was
// evicted from the store is re-simulated, and determinism makes the
// result identical.
func TestJournalRecoveryStoreMiss(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	store := newMemStore()
	m1, err := Open(Config{Workers: 1, Journal: openJournal(t, path),
		Lookup: store.Lookup, Run: storingRunner(store, nil)})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m1.Submit([]shift.Cell{testCell("loop", 7)})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	m1.Close()

	// Evict everything: recovery must fall back to re-simulation.
	empty := newMemStore()
	m2, err := Open(Config{Workers: 1, Journal: openJournal(t, path),
		Lookup: empty.Lookup, Run: storingRunner(empty, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if rec := m2.Recovery(); rec.CellsRestored != 0 || rec.CellsRequeued != 1 {
		t.Fatalf("recovery = %+v, want 0 restored / 1 requeued", rec)
	}
	g, _ := m2.Get(j.ID())
	waitTerminal(t, g)
	if st := g.Snapshot(); st.State != StateDone || st.Results[0].MPKI != 7 {
		t.Fatalf("re-simulated job: state=%v results=%v", st.State, st.Results)
	}
}

// TestJournalRecoveryFailed: deterministic failures are replayed from
// the journal, not re-run.
func TestJournalRecoveryFailed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	store := newMemStore()
	m1, err := Open(Config{Workers: 1, Journal: openJournal(t, path),
		Lookup: store.Lookup, Run: storingRunner(store, map[string]bool{"bad": true})})
	if err != nil {
		t.Fatal(err)
	}
	jF, err := m1.Submit([]shift.Cell{testCell("bad", 1)})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, jF)
	m1.Close()

	m2, err := Open(Config{Workers: 1, Journal: openJournal(t, path),
		Lookup: store.Lookup, Run: storingRunner(store, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	gF, _ := m2.Get(jF.ID())
	if st := gF.Snapshot(); st.State != StateFailed || st.CellErrs[0] != "boom: bad" {
		t.Fatalf("failed job after restart: state=%v errs=%v", st.State, st.CellErrs)
	}
	// The failure was replayed from the journal, not re-executed.
	if rec := m2.Recovery(); rec.CellsRequeued != 0 {
		t.Fatalf("recovery requeued %d cells, want 0", rec.CellsRequeued)
	}
}

// TestRecoveryCancelledJobDropsQueuedCells: a job cancelled before the
// crash with never-run cells recovers straight to cancelled.
func TestRecoveryCancelledJobDropsQueuedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	store := newMemStore()
	mgr, err := Open(Config{Workers: 1, Journal: openJournal(t, path), Lookup: store.Lookup,
		Run: func(cfg shift.Config) (shift.RunResult, error) {
			time.Sleep(10 * time.Millisecond)
			return shift.RunResult{}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	j, err := mgr.Submit([]shift.Cell{testCell("loop", 1), testCell("stream", 2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	mgr.Close()

	m2, err := Open(Config{Workers: 1, Journal: openJournal(t, path),
		Lookup: store.Lookup, Run: storingRunner(store, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	g, _ := m2.Get(j.ID())
	st := g.Snapshot()
	if st.State != StateCancelled {
		t.Fatalf("cancelled job after restart: state=%v", st.State)
	}
	if rec := m2.Recovery(); rec.JobsTerminal == 0 {
		t.Fatalf("recovery = %+v, want the cancelled job terminal", rec)
	}
}

// TestDrain: draining stops new pops, running cells finish, queued
// cells survive in the checkpoint, and Submit is refused.
func TestDrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	store := newMemStore()
	br := newBlockingRunner()
	m, err := Open(Config{Workers: 1, Journal: openJournal(t, path),
		Lookup: store.Lookup,
		Run: func(cfg shift.Config) (shift.RunResult, error) {
			r, err := br.run(cfg)
			if err == nil {
				store.put(cfg.Key(), r)
			}
			return r, err
		}})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit([]shift.Cell{testCell("loop", 1), testCell("pointer", 500)})
	if err != nil {
		t.Fatal(err)
	}
	br.awaitStart(t) // cheap cell is running; expensive one queued

	drained := make(chan error, 1)
	go func() { drained <- m.Drain(context.Background()) }()
	waitFor(t, func() bool { return m.Stats().Draining })

	if _, err := m.Submit([]shift.Cell{testCell("mix", 1)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit during drain = %v, want ErrDraining", err)
	}

	br.release <- struct{}{} // let the running cell finish
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not complete")
	}
	if st := j.Snapshot(); st.Completed != 1 {
		t.Fatalf("after drain: completed=%d, want 1", st.Completed)
	}
	m.Close()

	// The checkpointed journal recovers the job with its finished cell
	// restored and the queued one re-admitted.
	m2, err := Open(Config{Workers: 1, Journal: openJournal(t, path),
		Lookup: store.Lookup, Run: storingRunner(store, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rec := m2.Recovery()
	if rec.JobsRecovered != 1 || rec.CellsRestored != 1 || rec.CellsRequeued != 1 {
		t.Fatalf("recovery after drain = %+v", rec)
	}
	g, _ := m2.Get(j.ID())
	waitTerminal(t, g)
	if st := g.Snapshot(); st.State != StateDone {
		t.Fatalf("job after drained restart: %v", st.State)
	}
}

// TestDrainGraceExpiry: a drain whose context expires returns the
// context error while the journal still holds the unfinished work.
func TestDrainGraceExpiry(t *testing.T) {
	br := newBlockingRunner()
	m := New(Config{Workers: 1, Run: br.run})
	defer m.Close()
	if _, err := m.Submit([]shift.Cell{testCell("loop", 1)}); err != nil {
		t.Fatal(err)
	}
	br.awaitStart(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want deadline exceeded", err)
	}
	br.release <- struct{}{}
}

// TestJournalCompaction: enough submit/cell churn triggers automatic
// compaction, and the compacted journal still recovers everything.
func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	store := newMemStore()
	m, err := Open(Config{Workers: 2, Burst: 1024, Journal: openJournal(t, path),
		Lookup: store.Lookup, Run: storingRunner(store, nil)})
	if err != nil {
		t.Fatal(err)
	}
	var jobsSubmitted []*Job
	for i := 0; i < 8; i++ {
		cells := make([]shift.Cell, 16)
		for c := range cells {
			cells[c] = testCell(fmt.Sprintf("w-%d-%d", i, c), int64(c+1))
		}
		j, err := m.Submit(cells)
		if err != nil {
			t.Fatal(err)
		}
		jobsSubmitted = append(jobsSubmitted, j)
	}
	for _, j := range jobsSubmitted {
		waitTerminal(t, j)
	}
	waitFor(t, func() bool {
		st, _ := m.JournalStats()
		return st.Compactions >= 1
	})
	m.Close()

	m2, err := Open(Config{Workers: 2, Journal: openJournal(t, path),
		Lookup: store.Lookup, Run: storingRunner(store, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if rec := m2.Recovery(); rec.JobsTerminal != len(jobsSubmitted) {
		t.Fatalf("recovered %d terminal jobs from compacted journal, want %d",
			rec.JobsTerminal, len(jobsSubmitted))
	}
	for _, j := range jobsSubmitted {
		g, ok := m2.Get(j.ID())
		if !ok {
			t.Fatalf("job %s lost in compaction", j.ID())
		}
		if st := g.Snapshot(); st.State != StateDone {
			t.Fatalf("job %s state %v after compacted recovery", j.ID(), st.State)
		}
	}
}

// followLive tracks j's event log with an advancing cursor until the
// job is terminal (or 5 s pass), closing attached after its first read.
func followLive(j *Job, attached chan<- struct{}) []Event {
	deadline := time.After(5 * time.Second)
	var all []Event
	for {
		evs, terminal, changed := j.EventsSince(len(all))
		if attached != nil {
			close(attached)
			attached = nil
		}
		all = append(all, evs...)
		if terminal {
			return all
		}
		select {
		case <-changed:
		case <-deadline:
			return all
		}
	}
}

// TestEventsRebuiltEqualLive: no event is stored, so what a follower
// that tracked the job live was handed must be exactly what any later
// follower is handed for the same positions — from cursor 0, from every
// cursor mid-job, and from past the end event — whatever the cells went
// through on the way.
func TestEventsRebuiltEqualLive(t *testing.T) {
	cells := []shift.Cell{testCell("a", 1), testCell("bad", 2), testCell("c", 3), testCell("d", 500)}
	fail := map[string]bool{"bad": true}
	// Each scenario returns a job no cell of which has finished under
	// this manager yet, and what lets it run to its terminal state.
	scenarios := map[string]func(t *testing.T) (*Job, func()){
		"failed cell": func(t *testing.T) (*Job, func()) {
			b := newBlockingRunner()
			b.fail = fail
			m := New(Config{Workers: 2, Run: b.run})
			t.Cleanup(m.Close)
			j, err := m.Submit(cells)
			if err != nil {
				t.Fatal(err)
			}
			return j, func() {
				for range cells {
					b.release <- struct{}{}
				}
			}
		},
		"cancelled with dropped cells": func(t *testing.T) (*Job, func()) {
			b := newBlockingRunner()
			m := New(Config{Workers: 1, Run: b.run})
			t.Cleanup(m.Close)
			j, err := m.Submit(cells)
			if err != nil {
				t.Fatal(err)
			}
			b.awaitStart(t)
			return j, func() {
				m.Cancel(j.ID())
				b.release <- struct{}{}
			}
		},
		"transiently retried cell": func(t *testing.T) (*Job, func()) {
			r := newFlakyRunner(&shift.TimeoutError{Timeout: time.Millisecond, Cells: 1},
				map[string]int{"a": 2, "bad": 100})
			gate := make(chan struct{})
			m := New(Config{Workers: 2, Retries: 3,
				Run: func(cfg shift.Config) (shift.RunResult, error) {
					<-gate
					return r.run(cfg)
				}})
			t.Cleanup(m.Close)
			j, err := m.Submit(cells)
			if err != nil {
				t.Fatal(err)
			}
			return j, func() { close(gate) }
		},
		// Six cells of one stream finish in one RunBatch call, so their
		// events land back to back (one of them a failure).
		"one batch of six": func(t *testing.T) (*Job, func()) {
			r := newBatchRecorder(true)
			r.outcome = func(_ int, m member) error {
				if m.seed == 4 {
					return errors.New("boom")
				}
				return nil
			}
			m := New(Config{Workers: 2, RunBatch: r.run})
			t.Cleanup(m.Close)
			var six []shift.Cell
			for seed := int64(1); seed <= 6; seed++ {
				six = append(six, streamCell("a", seed))
			}
			j, err := m.Submit(six)
			if err != nil {
				t.Fatal(err)
			}
			return j, func() { r.gate <- struct{}{} }
		},
		"recovered from the journal": func(t *testing.T) (*Job, func()) {
			path := filepath.Join(t.TempDir(), "jobs.wal")
			store := newMemStore()
			b := newBlockingRunner()
			m1, err := Open(Config{Workers: 1, Journal: openJournal(t, path), Lookup: store.Lookup,
				Run: func(cfg shift.Config) (shift.RunResult, error) {
					<-b.release
					return storingRunner(store, fail)(cfg)
				}})
			if err != nil {
				t.Fatal(err)
			}
			j1, err := m1.Submit(cells)
			if err != nil {
				t.Fatal(err)
			}
			b.release <- struct{}{}
			b.release <- struct{}{}
			waitFor(t, func() bool { st := j1.Snapshot(); return st.Completed == 1 && st.Failed == 1 })
			m1.Close()              // the crash: two cells journaled, two not
			b.release <- struct{}{} // let the abandoned worker go

			gate := make(chan struct{})
			m2, err := Open(Config{Workers: 2, Journal: openJournal(t, path), Lookup: store.Lookup,
				Run: func(cfg shift.Config) (shift.RunResult, error) {
					<-gate
					return storingRunner(store, fail)(cfg)
				}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(m2.Close)
			j, ok := m2.Get(j1.ID())
			if !ok {
				t.Fatal("job lost across the restart")
			}
			return j, func() { close(gate) }
		},
	}
	for name, setup := range scenarios {
		t.Run(name, func(t *testing.T) {
			j, finish := setup(t)
			attached, done := make(chan struct{}), make(chan []Event, 1)
			go func() { done <- followLive(j, attached) }()
			<-attached
			finish()
			live := <-done

			st := j.Snapshot()
			if !st.State.Terminal() {
				t.Fatalf("job stuck in state %v", st.State)
			}
			if want := st.Completed + st.Failed + 1; len(live) != want {
				t.Fatalf("live follower saw %d events, want %d (one per finished cell, then end)", len(live), want)
			}
			if end := live[len(live)-1]; end.Type != EventEnd || end.State != st.State {
				t.Fatalf("last live event = %+v, want end/%v", end, st.State)
			}
			for n := -1; n <= len(live)+1; n++ {
				want := live
				if n > 0 {
					want = live[min(n, len(live)):]
				}
				got, terminal, _ := j.EventsSince(n)
				if !terminal {
					t.Fatalf("cursor %d: terminal job reported as running", n)
				}
				if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("cursor %d: rebuilt events\n%+v\ndiffer from those seen live\n%+v", n, got, want)
				}
			}
		})
	}
}

// retainedPerCell runs 64 jobs of 128 cells, cell c of job i being
// cell(i, c), to their terminal states on a fresh manager, and returns
// the heap they and the manager retain per cell.
func retainedPerCell(t *testing.T, cell func(i, c int) shift.Cell) uint64 {
	t.Helper()
	const jobCount, cellsPerJob = 64, 128
	heap := func() uint64 {
		settleHeap()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	m := New(Config{Workers: 2, MaxQueue: jobCount * cellsPerJob,
		Run: func(cfg shift.Config) (shift.RunResult, error) {
			return shift.RunResult{MPKI: float64(cfg.MeasureRecords)}, nil
		}})
	defer m.Close()
	var submitted []*Job
	for i := 0; i < jobCount; i++ {
		cells := make([]shift.Cell, cellsPerJob)
		for c := range cells {
			cells[c] = cell(i, c)
		}
		j, err := m.Submit(cells)
		if err != nil {
			t.Fatal(err)
		}
		submitted = append(submitted, j)
	}
	for _, j := range submitted {
		waitTerminal(t, j)
	}
	perCell := (heap() - before) / (jobCount * cellsPerJob)
	if st := m.Stats(); st.Evicted != 0 {
		t.Fatalf("%d jobs evicted: the measured jobs must all be retained", st.Evicted)
	}
	runtime.KeepAlive(m)
	runtime.KeepAlive(submitted)
	return perCell
}

// settleHeap collects until the heap stops shrinking. Manager.Close does
// not wait for its workers, so an earlier test's manager stays reachable
// until they are scheduled to exit; a baseline taken before then counts
// its heap, which a later reading does not.
func settleHeap() {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	for {
		prev := ms.HeapAlloc
		time.Sleep(time.Millisecond)
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc >= prev {
			return
		}
	}
}

// TestTerminalJobBytes is the footprint gate of "job events are
// derived" for distinct cells: a finished job holds each result once,
// in the manager's shared table. Nothing in a Job may hold an Event, and
// the heap a finished cell retains — its label, key, shared result, table
// entry and bookkeeping — stays under 600 B (the stored log this replaced
// retained a second copy: over 900 B a cell; a cell holding its own
// Cell, key and result retained 581–599 B).
func TestTerminalJobBytes(t *testing.T) {
	event := reflect.TypeOf(Event{})
	jt := reflect.TypeOf(Job{})
	for i := 0; i < jt.NumField(); i++ {
		ft := jt.Field(i).Type
		for ft.Kind() == reflect.Slice || ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Array {
			ft = ft.Elem()
		}
		if ft == event {
			t.Errorf("Job.%s holds events: the log is derived, not stored", jt.Field(i).Name)
		}
	}
	perCell := retainedPerCell(t, func(i, c int) shift.Cell {
		return testCell(fmt.Sprintf("w-%d-%d", i, c), int64(c+1))
	})
	t.Logf("a finished distinct cell retains %d B", perCell)
	const limit = 600
	if perCell > limit {
		t.Errorf("a finished distinct cell retains %d B, limit %d B", perCell, limit)
	}
}

// TestReplayedCellBytes is the footprint gate of shared results: the
// same 128-cell job submitted 64 times, labels and keys equal but each
// job's strings its own (as from separate request bodies). A finished
// replayed cell holds a pointer to the result and key its first
// occurrence entered in the shared table, and no config, so it retains
// at most 160 B (a cell holding its own Cell, key and result: 584–606 B).
func TestReplayedCellBytes(t *testing.T) {
	perCell := retainedPerCell(t, func(_, c int) shift.Cell {
		return testCell(fmt.Sprintf("w-%d", c), int64(c+1))
	})
	t.Logf("a finished replayed cell retains %d B", perCell)
	const limit = 160
	if perCell > limit {
		t.Errorf("a finished replayed cell retains %d B, limit %d B", perCell, limit)
	}
}

// TestSubmitJournalFailureRejects: a journal that cannot append makes
// Submit fail rather than admit a job a restart would forget.
func TestSubmitJournalFailureRejects(t *testing.T) {
	store := newMemStore()
	m, err := Open(Config{Workers: 1, Journal: brokenJournal{},
		Run: storingRunner(store, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Submit([]shift.Cell{testCell("loop", 1)}); err == nil {
		t.Fatal("Submit with a broken journal succeeded")
	}
	if m.Stats().JournalErrors == 0 {
		t.Fatal("journal error not counted")
	}
}

// unclosableJournal is an in-memory journal whose Close fails, as the
// final sync of a failing disk would.
type unclosableJournal struct{ *memJournal }

func (unclosableJournal) Close() error { return errors.New("sync: input/output error") }

// TestCloseJournalFailureCounted: a journal that fails to close at
// shutdown is counted in JournalErrors like any other failed journal
// write, not dropped.
func TestCloseJournalFailureCounted(t *testing.T) {
	m, err := Open(Config{Workers: 1, Journal: unclosableJournal{&memJournal{}},
		Run: storingRunner(newMemStore(), nil)})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().JournalErrors; got != 0 {
		t.Fatalf("JournalErrors = %d before Close, want 0", got)
	}
	m.Close()
	if got := m.Stats().JournalErrors; got != 1 {
		t.Fatalf("JournalErrors = %d after a failed journal close, want 1", got)
	}
}

// brokenJournal fails every append.
type brokenJournal struct{}

func (brokenJournal) Replay() ([]Entry, error) { return nil, nil }
func (brokenJournal) Append(Entry) error       { return errors.New("disk full") }
func (brokenJournal) Compact([]Entry) error    { return errors.New("disk full") }
func (brokenJournal) Stats() JournalStats      { return JournalStats{} }
func (brokenJournal) Close() error             { return nil }

// waitFor polls cond until true or a 5s deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRecoveredCellsShareResults: cells restored from the store at Open
// go through the shared table like live ones, so two recovered jobs of
// equal cells, and a fresh job of the same cells, point at one result per
// key.
func TestRecoveredCellsShareResults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	store := newMemStore()
	cells := []shift.Cell{testCell("a", 1), testCell("b", 2), testCell("c", 3)}
	m1, err := Open(Config{Workers: 1, Journal: openJournal(t, path),
		Lookup: store.Lookup, Run: storingRunner(store, nil)})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for k := 0; k < 2; k++ {
		j, err := m1.Submit(cells)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		ids = append(ids, j.ID())
	}
	m1.Close()

	m2, err := Open(Config{Workers: 1, Journal: openJournal(t, path),
		Lookup: store.Lookup, Run: storingRunner(store, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if rec := m2.Recovery(); rec.CellsRestored != 2*len(cells) || rec.CellsRequeued != 0 {
		t.Fatalf("recovery = %+v, want %d cells restored, none requeued", rec, 2*len(cells))
	}
	var jobs []*Job
	for _, id := range ids {
		j, ok := m2.Get(id)
		if !ok {
			t.Fatalf("job %s lost across the restart", id)
		}
		jobs = append(jobs, j)
	}
	fresh, err := m2.Submit(cells)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, fresh)
	jobs = append(jobs, fresh)
	first := cellEvents(waitTerminal(t, jobs[0]))
	for _, j := range jobs {
		for i, ev := range cellEvents(waitTerminal(t, j)) {
			if ev.Result == nil || ev.Result.MPKI != float64(i+1) || ev.Result != first[i].Result {
				t.Errorf("job %s cell %d: result %v is not the shared %v", j.ID(), i, ev.Result, first[i].Result)
			}
		}
	}
	if got := m2.Stats().SharedResults; got != len(cells) {
		t.Errorf("SharedResults = %d, want %d", got, len(cells))
	}
}

// TestCompactionAfterTerminalKeepsCells: a terminal job has dropped its
// configs, so a snapshot taken after jobs finish must journal their cells
// from the submitted wire form. Reopened from that snapshot, every job
// has the labels, keys, results, errors and states it had.
func TestCompactionAfterTerminalKeepsCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	store := newMemStore()
	fail := map[string]bool{"bad": true}
	m1, err := Open(Config{Workers: 2, Journal: openJournal(t, path),
		Lookup: store.Lookup, Run: storingRunner(store, fail)})
	if err != nil {
		t.Fatal(err)
	}
	var before []Status
	for _, cells := range [][]shift.Cell{
		{testCell("a", 1), testCell("b", 2)},
		{testCell("a", 1), testCell("bad", 3), testCell("c", 4)},
		{{Label: "custom", Config: testCell("d", 5).Config}},
	} {
		j, err := m1.Submit(cells)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		before = append(before, j.Snapshot())
	}
	// A job's end record is appended after its end event and before its
	// latency is counted: wait for every one, so the snapshot is all.
	waitFor(t, func() bool { return m1.Stats().LatencyCount == int64(len(before)) })
	checkpoint(m1)
	if st, _ := m1.JournalStats(); st.Compactions != 1 || st.Records != len(before) {
		t.Fatalf("journal after the checkpoint = %+v, want one record per job", st)
	}
	m1.Close()

	m2, err := Open(Config{Workers: 1, Journal: openJournal(t, path),
		Lookup: store.Lookup, Run: storingRunner(store, fail)})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for _, want := range before {
		j, ok := m2.Get(want.ID)
		if !ok {
			t.Fatalf("job %s lost in the compacted journal", want.ID)
		}
		got := j.Snapshot()
		if got.State != want.State || got.Cells != want.Cells ||
			!reflect.DeepEqual(got.Labels, want.Labels) || !reflect.DeepEqual(got.Keys, want.Keys) ||
			!reflect.DeepEqual(got.Results, want.Results) || !reflect.DeepEqual(got.CellErrs, want.CellErrs) ||
			!reflect.DeepEqual(got.Done, want.Done) {
			t.Errorf("job %s after the compacted restart:\n%+v\nwant\n%+v", want.ID, got, want)
		}
	}
}

// TestFinishedJobScanBytes is the collector's view of the job registry:
// a finished job stays in it for retainedCells later cells, and every GC
// cycle rescans what the finished ones hold. As many replays of one
// six-design job as the bound retains (1,364 after the first), each with
// label strings of its own as from separate request bodies, may each
// leave at most 900 B live and 400 B for the collector to scan
// (runtime/metrics /gc/heap/live:bytes and /gc/scan/heap:bytes; ≈ 655
// and 350 B). Labels packed into one string, indices into the shared
// results instead of pointers, timestamps without a *time.Location and
// one closed channel for every finished job brought them from 1,020 and
// 685 B.
func TestFinishedJobScanBytes(t *testing.T) {
	designs := []shift.Design{shift.DesignBaseline, shift.DesignNextLine, shift.DesignPIF2K,
		shift.DesignPIF32K, shift.DesignZeroLatSHIFT, shift.DesignSHIFT}
	jobCount := retainedCells/len(designs) - 1
	read := func() (live, scan uint64) {
		settleHeap()
		samples := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/scan/heap:bytes"}}
		metrics.Read(samples)
		return samples[0].Value.Uint64(), samples[1].Value.Uint64()
	}
	m := New(Config{Workers: 2, Run: func(cfg shift.Config) (shift.RunResult, error) {
		return shift.RunResult{Workload: cfg.Workload, Design: cfg.Design.String(), Cores: cfg.Cores,
			Throughput: 3.5, MPKI: float64(cfg.Design) + 0.25}, nil
	}})
	defer m.Close()
	replay := func() {
		cells := make([]shift.Cell, len(designs))
		for i, d := range designs {
			cfg := shift.DefaultRunConfig("OLTP Oracle", d)
			cells[i] = shift.Cell{Label: fmt.Sprintf("%s/%s", "OLTP Oracle", d), Config: cfg}
		}
		j, err := m.Submit(cells)
		if err != nil {
			t.Fatal(err)
		}
		// Not waitTerminal: its deadline timer would outlive the job.
		for {
			_, terminal, changed := j.EventsSince(math.MaxInt)
			if terminal {
				break
			}
			<-changed
		}
	}
	replay() // the results every replay shares
	liveBefore, scanBefore := read()
	for k := 0; k < jobCount; k++ {
		replay()
	}
	liveAfter, scanAfter := read()
	live, scan := (liveAfter-liveBefore)/uint64(jobCount), (scanAfter-scanBefore)/uint64(jobCount)
	if st := m.Stats(); st.Evicted != 0 {
		t.Fatalf("%d jobs evicted: the measured jobs must all be retained", st.Evicted)
	}
	t.Logf("a finished replayed six-cell job: %d B live, %d B scannable", live, scan)
	if live > 900 || scan > 400 {
		t.Errorf("a finished replayed six-cell job keeps %d B live and %d B scannable, limits 900 and 400 B", live, scan)
	}
	runtime.KeepAlive(m)
}
