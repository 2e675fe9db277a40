package jobs

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
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
	if _, ok := mgr.Cancel(j.ID()); !ok {
		t.Fatal("cancel failed")
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
	waitFor(t, func() bool { return m.Draining() })

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

// TestEventWindowBounded: a job emitting more events than the window
// keeps memory bounded while EventsSince still serves every event —
// the trimmed prefix synthesized, absolute cursors unshifted.
func TestEventWindowBounded(t *testing.T) {
	store := newMemStore()
	m, err := Open(Config{Workers: 2, Burst: 1024, EventWindow: 4,
		Run: storingRunner(store, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cells := make([]shift.Cell, 32)
	for i := range cells {
		cells[i] = testCell(fmt.Sprintf("w-%d", i), int64(i+1))
	}
	j, err := m.Submit(cells)
	if err != nil {
		t.Fatal(err)
	}

	// A live follower with an advancing cursor sees every event exactly
	// once despite trimming.
	seen := make(map[int]bool)
	n := 0
	sawEnd := false
	deadline := time.After(10 * time.Second)
	for !sawEnd {
		evs, terminal, changed := j.EventsSince(n)
		for _, ev := range evs {
			switch ev.Type {
			case EventCell:
				if seen[ev.Index] {
					t.Fatalf("cell %d delivered twice", ev.Index)
				}
				seen[ev.Index] = true
			case EventEnd:
				sawEnd = true
			}
		}
		n += len(evs)
		if terminal && sawEnd {
			break
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatal("follower timed out")
		}
	}
	if len(seen) != len(cells) {
		t.Fatalf("follower saw %d cells, want %d", len(seen), len(cells))
	}

	// The retained window is bounded.
	j.mu.Lock()
	retained := len(j.events)
	base := j.eventsBase
	j.mu.Unlock()
	if retained > 4 {
		t.Fatalf("window holds %d events, bound is 4", retained)
	}
	if base == 0 {
		t.Fatal("window never trimmed")
	}

	// A late subscriber replaying from zero gets one event per cell
	// (synthesized prefix + window) and exactly one end event.
	evs, terminal, _ := j.EventsSince(0)
	if !terminal {
		t.Fatal("job not terminal for late subscriber")
	}
	if len(evs) != len(cells)+1 {
		t.Fatalf("late subscriber got %d events, want %d", len(evs), len(cells)+1)
	}
	cellSeen := make(map[int]bool)
	for i, ev := range evs {
		if ev.Type == EventEnd {
			if i != len(evs)-1 {
				t.Fatal("end event not last")
			}
			continue
		}
		if cellSeen[ev.Index] {
			t.Fatalf("late replay duplicated cell %d", ev.Index)
		}
		cellSeen[ev.Index] = true
		if ev.Result.MPKI == 0 && ev.Err == "" {
			t.Fatalf("late replay event %d carries no payload", i)
		}
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
