package jobs

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"shift"
	"shift/internal/race"
)

// memJournal is an in-memory Journal. reopen returns a journal over what
// this one holds, as a restart over the same write-ahead log sees it;
// history keeps every record appended, as a journal that never compacted
// would hold them.
type memJournal struct {
	mu          sync.Mutex
	replayed    []Entry
	entries     []Entry
	history     []Entry
	compactions int64
}

func (jn *memJournal) Replay() ([]Entry, error) { return jn.replayed, nil }

func (jn *memJournal) Append(e Entry) error {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	jn.entries = append(jn.entries, e)
	jn.history = append(jn.history, e)
	return nil
}

func (jn *memJournal) Compact(es []Entry) error {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	jn.entries = slices.Clone(es)
	jn.compactions++
	return nil
}

func (jn *memJournal) Stats() JournalStats {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	return JournalStats{Records: len(jn.entries), Compactions: jn.compactions}
}

func (jn *memJournal) Close() error { return nil }

func (jn *memJournal) reopen() *memJournal {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	return &memJournal{replayed: slices.Clone(jn.entries), entries: slices.Clone(jn.entries)}
}

// checkpoint compacts m's journal down to a snapshot of its registry, as
// a completed drain does.
func checkpoint(m *Manager) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.checkpointLocked()
}

// ops returns the op and job of every record the journal holds.
func (jn *memJournal) ops() []string {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	var ops []string
	for _, e := range jn.entries {
		ops = append(ops, e.Op+" "+e.Job)
	}
	return ops
}

// awaitEnd follows j's events to its end, without waitTerminal's
// deadline timer, which would outlive the job in a heap measurement.
func awaitEnd(j *Job) {
	var buf [8]Event
	n := 0
	for {
		evs, terminal, changed := j.AppendEventsSince(buf[:0], n)
		n += len(evs)
		if terminal {
			return
		}
		<-changed
	}
}

// sixDesigns returns a replayed six-design job with label strings of its
// own, as from a separate request body.
func sixDesigns() []shift.Cell {
	designs := []shift.Design{shift.DesignBaseline, shift.DesignNextLine, shift.DesignPIF2K,
		shift.DesignPIF32K, shift.DesignZeroLatSHIFT, shift.DesignSHIFT}
	cells := make([]shift.Cell, len(designs))
	for i, d := range designs {
		cfg := shift.DefaultRunConfig("OLTP Oracle", d)
		cells[i] = shift.Cell{Label: fmt.Sprintf("%s/%s", "OLTP Oracle", d), Config: cfg}
	}
	return cells
}

// byDesign is a runner whose result depends only on the cell's design.
func byDesign(cfg shift.Config) (shift.RunResult, error) {
	return shift.RunResult{Workload: cfg.Workload, Design: cfg.Design.String(), MPKI: float64(cfg.Design) + 0.25}, nil
}

// TestRecoveryRequeuesInIDOrder: a recovered queue's tie-break follows
// submission order, which is the IDs' numeric order, not their string
// order: past j-999999, "j-1000000" sorts before "j-200000". So does a
// snapshot of jobs still queued.
func TestRecoveryRequeuesInIDOrder(t *testing.T) {
	ids := []string{"j-200000", "j-999999", "j-1000000"}
	jn := &memJournal{}
	for _, id := range ids {
		c := testCell(id, 10) // equal costs: only the tie-break orders them
		jn.replayed = append(jn.replayed, Entry{Op: opSubmit, Job: id, Cells: []EntryCell{{Label: c.Label, Config: c.Config}}})
	}
	gate := make(chan struct{})
	var mu sync.Mutex
	var ran []string
	m, err := Open(Config{Workers: 1, Journal: jn, Run: func(cfg shift.Config) (shift.RunResult, error) {
		<-gate
		mu.Lock()
		defer mu.Unlock()
		ran = append(ran, cfg.Workload)
		return shift.RunResult{}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	checkpoint(m)
	want := []string{"snap j-200000", "snap j-999999", "snap j-1000000"}
	if got := jn.ops(); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot of the recovered queue = %q, want %q", got, want)
	}
	close(gate)
	for _, id := range ids {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s not recovered", id)
		}
		waitTerminal(t, j)
	}
	if !reflect.DeepEqual(ran, ids) {
		t.Errorf("recovered jobs ran in order %q, want submission order %q", ran, ids)
	}
	j, err := m.Submit([]shift.Cell{testCell("next", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != "j-1000001" {
		t.Errorf("next ID = %s, want j-1000001", j.ID())
	}
}

// TestEvictedIDsAreNeverReused: async jobs past the retention bound,
// submitted in pairs whose second job is cheaper and finishes first, and
// then sync jobs, which all leave, the last of them holding the highest
// ID. Reopened over the journal — as it stood, compacted down to the
// registry, and never compacted at all — a manager retains exactly the
// jobs that were retained, with the same snapshots; an evicted ID stays
// unknown; and the next ID is above every ID ever issued.
func TestEvictedIDsAreNeverReused(t *testing.T) {
	// 41 jobs of 256 cells: the bound keeps 32, so the nine that finished
	// first leave, the ninth being j-000010, which finished before
	// j-000009.
	const asyncJobs, cellsPerJob, syncJobs = 41, 256, 3
	store := newMemStore()
	jn := &memJournal{}
	// hold keeps the worker's cells waiting while a pair is submitted, so
	// the cheaper second job's cells all run before the first job's rest.
	var hold sync.RWMutex
	run := storingRunner(store, nil)
	cfg := Config{Workers: 1, Journal: jn, Lookup: store.Lookup, Run: func(c shift.Config) (shift.RunResult, error) {
		hold.RLock()
		defer hold.RUnlock()
		return run(c)
	}}
	m1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(k int, sync bool) *Job {
		cells := make([]shift.Cell, cellsPerJob)
		for c := range cells {
			cells[c] = testCell(fmt.Sprintf("w-%d-%d", k, c), int64(c+1+(k+1)%2*1000))
		}
		var j *Job
		var err error
		if sync {
			j, err = m1.SubmitSyncFrom("", cells)
		} else {
			j, err = m1.Submit(cells)
		}
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	for k := 0; k < asyncJobs; k += 2 {
		hold.Lock()
		pair := []*Job{submit(k, false)}
		if k+1 < asyncJobs {
			pair = append(pair, submit(k+1, false))
		}
		hold.Unlock()
		for _, j := range pair {
			waitTerminal(t, j)
		}
	}
	for k := 0; k < syncJobs; k++ {
		waitTerminal(t, submit(asyncJobs+k, true))
	}
	const issued = asyncJobs + syncJobs
	waitFor(t, func() bool { return m1.Stats().LatencyCount == issued })

	retained := map[string]Status{}
	for n := int64(1); n <= issued; n++ {
		if j, ok := m1.Get(jobID(n)); ok {
			retained[j.ID()] = j.Snapshot()
		}
	}
	st := m1.Stats()
	if len(retained) == 0 || len(retained) >= asyncJobs || st.Evicted != int64(issued-len(retained)) {
		t.Fatalf("%d of %d jobs retained, %d evicted; want some async jobs evicted and every sync job",
			len(retained), issued, st.Evicted)
	}
	if _, ok := m1.Get(jobID(issued)); ok {
		t.Fatal("a finished sync job is still in the registry")
	}
	if _, ok := retained[jobID(10)]; ok || retained[jobID(9)].ID == "" {
		t.Fatalf("retained %d jobs, want j-000009 and not j-000010, which finished before it", len(retained))
	}
	asItStood := jn.reopen()
	checkpoint(m1)
	compacted := jn.reopen()
	m1.Close()
	never := &memJournal{replayed: jn.history}
	if ops := compacted.ops(); len(ops) != len(retained)+1 || ops[0] != "last-id "+jobID(issued) {
		t.Fatalf("compacted journal = %q, want the last ID, then one snap per retained job", ops)
	}

	for name, jn := range map[string]*memJournal{"as it stood": asItStood, "compacted": compacted, "never compacted": never} {
		t.Run(name, func(t *testing.T) {
			cfg := cfg
			cfg.Journal = jn
			m2, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			for n := int64(1); n <= issued; n++ {
				id := jobID(n)
				j, ok := m2.Get(id)
				want, kept := retained[id]
				switch {
				case ok != kept:
					t.Errorf("job %s in the registry: %v after the restart, %v before", id, ok, kept)
				case ok:
					got := j.Snapshot()
					if got.State != want.State || !reflect.DeepEqual(got.Keys, want.Keys) ||
						!reflect.DeepEqual(got.Results, want.Results) || !reflect.DeepEqual(got.Labels, want.Labels) {
						t.Errorf("job %s after the restart differs from before it", id)
					}
				}
				if _, err := m2.Cancel(id); (err == nil) != kept {
					t.Errorf("cancelling job %s: %v, want found %v", id, err, kept)
				}
			}
			if got := m2.Stats(); got.Retained != len(retained) {
				t.Errorf("%d jobs retained after the restart, want %d", got.Retained, len(retained))
			}
			j, err := m2.Submit([]shift.Cell{testCell("next", 1)})
			if err != nil {
				t.Fatal(err)
			}
			if j.ID() != jobID(issued+1) {
				t.Errorf("next ID = %s, want %s", j.ID(), jobID(issued+1))
			}
		})
	}
}

// TestSyncJobsLeaveAtTerminal: a sync job is readable through the Job its
// submitter holds, but leaves the registry when terminal; journaled with
// its mark, it is dropped by a replay that finds it terminal, and a
// replay that finds it queued runs it and then drops it.
func TestSyncJobsLeaveAtTerminal(t *testing.T) {
	store := newMemStore()
	jn := &memJournal{}
	gate := make(chan struct{}, 4)
	run := storingRunner(store, nil)
	cfg := Config{Workers: 1, Journal: jn, Lookup: store.Lookup, Run: func(c shift.Config) (shift.RunResult, error) {
		<-gate
		return run(c)
	}}
	m1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{}
	done, err := m1.SubmitSyncFrom("c", []shift.Cell{testCell("a", 7)})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, done)
	waitFor(t, func() bool { return m1.Stats().Evicted == 1 })
	if _, ok := m1.Get(done.ID()); ok {
		t.Fatal("a terminal sync job is still in the registry")
	}
	if st := done.Snapshot(); st.State != StateDone || st.Results[0].MPKI != 7 {
		t.Fatalf("the submitter's view of the sync job = %+v, want done with its result", st)
	}
	m0, err := Open(Config{Workers: 1, Journal: jn.reopen(), Lookup: store.Lookup, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	_, ok := m0.Get(done.ID())
	rec := m0.Recovery()
	m0.Close()
	if ok || rec.JobsTerminal != 1 {
		t.Fatalf("replaying the sync job's submit, cell and end records: found %v, recovery %+v; want it dropped", ok, rec)
	}
	queued, err := m1.SubmitSyncFrom("c", []shift.Cell{testCell("b", 8)})
	if err != nil {
		t.Fatal(err)
	}
	checkpoint(m1) // its cell blocks in the runner: snapped unresolved
	m1.Close()
	reopened := jn.reopen()
	gate <- struct{}{} // the closed manager's worker finishes, unjournaled

	m2, err := Open(Config{Workers: 1, Journal: reopened, Lookup: store.Lookup, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, ok := m2.Get(done.ID()); ok {
		t.Error("the replay brought back a terminal sync job")
	}
	j, ok := m2.Get(queued.ID())
	if !ok {
		t.Fatal("the replay lost a queued sync job")
	}
	waitTerminal(t, j)
	waitFor(t, func() bool { _, ok := m2.Get(queued.ID()); return !ok })
	if rec := m2.Recovery(); rec.JobsRecovered != 1 {
		t.Errorf("recovery = %+v, want the queued sync job re-admitted", rec)
	}
}

// TestSyncJobGoneOnceTerminal: a sync job leaves the registry no later
// than its terminal state is published, so the submitter it wakes never
// finds it there.
func TestSyncJobGoneOnceTerminal(t *testing.T) {
	m := New(Config{Workers: 2, Run: func(c shift.Config) (shift.RunResult, error) {
		return shift.RunResult{MPKI: float64(c.MeasureRecords)}, nil
	}})
	defer m.Close()
	for i := 0; i < 5000; i++ {
		j, err := m.SubmitSyncFrom("", []shift.Cell{testCell("a", int64(i+1))})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		if _, ok := m.Get(j.ID()); ok {
			t.Fatalf("sync job %s is terminal but still in the registry", j.ID())
		}
	}
}

// TestJournalRecordsBounded: 20,000 jobs through a journal leave it
// about eight records per retained job at most, since a compaction snaps
// only the registry, which the retention bound keeps bounded.
func TestJournalRecordsBounded(t *testing.T) {
	const jobCount = 20000
	jn := &memJournal{}
	m, err := Open(Config{Workers: 2, Journal: jn, Run: byDesign})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	maxRecords := 0
	for k := 0; k < jobCount; k++ {
		j, err := m.Submit(sixDesigns())
		if err != nil {
			t.Fatal(err)
		}
		awaitEnd(j)
		maxRecords = max(maxRecords, jn.Stats().Records)
	}
	// A six-cell job is 8 records; compaction waits for 8 per registry job.
	limit := 9 * (retainedCells/6 + 2)
	t.Logf("%d jobs: at most %d journal records, %d compactions", jobCount, maxRecords, jn.Stats().Compactions)
	if maxRecords > limit {
		t.Errorf("the journal reached %d records, limit %d", maxRecords, limit)
	}
}

// TestRetainedJobsHeapBytesBounded: 20,000 replayed six-cell jobs, each
// followed to its end, leave the registry holding at most retainedCells
// finished cells plus one job's, and the live heap after 20,000 jobs
// within 1 MB of the heap after 10,000.
func TestRetainedJobsHeapBytesBounded(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector: heap readings are not the production ones")
	}
	const half = 10000
	m := New(Config{Workers: 2, Run: byDesign})
	defer m.Close()
	heap := func() uint64 {
		settleHeap()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	replay := func(n int) {
		for k := 0; k < n; k++ {
			j, err := m.Submit(sixDesigns())
			if err != nil {
				t.Fatal(err)
			}
			awaitEnd(j)
		}
	}
	replay(half)
	mid := heap()
	replay(half)
	end := heap()
	st := m.Stats()
	t.Logf("after %d jobs: %d retained of %d cells, %d evicted; heap %d B after %d jobs, %d B after %d",
		2*half, st.Retained, st.RetainedCells, st.Evicted, mid, half, end, 2*half)
	if st.RetainedCells > retainedCells+6 || st.SharedResults != 6 {
		t.Errorf("%d cells retained, limit %d, pointing at %d shared results, want 6",
			st.RetainedCells, retainedCells+6, st.SharedResults)
	}
	if end > mid+1<<20 {
		t.Errorf("the heap grew by %d B from %d to %d jobs, limit 1 MB", end-mid, half, 2*half)
	}
	runtime.KeepAlive(m)
}

// TestEvictionRacesReaders: a job is followed, read, and cancelled while
// later jobs push it out of the registry and reuse its results' slots in
// the shared table. Its follower reads every event, and what it reads
// after the eviction is what it read before; the table stays bounded.
func TestEvictionRacesReaders(t *testing.T) {
	m := New(Config{Workers: 2, MaxQueue: 1 << 16, Run: func(cfg shift.Config) (shift.RunResult, error) {
		return shift.RunResult{Workload: cfg.Workload, MPKI: float64(cfg.MeasureRecords)}, nil
	}})
	defer m.Close()
	target, err := m.Submit([]shift.Cell{testCell("t0", 1), testCell("t1", 2), testCell("t2", 3)})
	if err != nil {
		t.Fatal(err)
	}
	id := target.ID()
	var wg sync.WaitGroup
	var live []Event
	wg.Add(3)
	go func() { // a follower that holds the job
		defer wg.Done()
		live = followLive(target, nil)
		for {
			if evs, _, _ := target.EventsSince(0); !reflect.DeepEqual(evs, live) {
				t.Errorf("the log reads\n%+v\nafter\n%+v", evs, live)
				return
			}
			if _, ok := m.Get(id); !ok {
				return
			}
			runtime.Gosched()
		}
	}()
	go func() { // a poller
		defer wg.Done()
		for {
			j, ok := m.Get(id)
			if !ok {
				return
			}
			j.Snapshot()
			runtime.Gosched()
		}
	}()
	go func() { // a canceller
		defer wg.Done()
		for {
			if _, err := m.Cancel(id); err != nil {
				return
			}
			runtime.Gosched()
		}
	}()
	// Distinct keys: the target's freed slots are taken by fresh entries.
	for k := 0; k*512 <= 2*retainedCells; k++ {
		cells := make([]shift.Cell, 512)
		for c := range cells {
			cells[c] = testCell(fmt.Sprintf("f-%d-%d", k, c), int64(c+1))
		}
		j, err := m.Submit(cells)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
	}
	wg.Wait()
	if _, ok := m.Get(id); ok {
		t.Fatal("the target job was not evicted")
	}
	// Freed slots are reused: the table never held more entries than the
	// registry's cells and two flood jobs.
	if n, limit := len(m.cfg.Results.Slots()), retainedCells+2*512+3; n > limit {
		t.Errorf("the shared table has %d slots, limit %d", n, limit)
	}
	if len(live) == 0 || live[len(live)-1].Type != EventEnd {
		t.Fatalf("the follower read %+v, want the job to its end", live)
	}
	st := target.Snapshot()
	for _, ev := range live[:len(live)-1] {
		want := shift.RunResult{Workload: fmt.Sprintf("t%d", ev.Index), MPKI: float64(ev.Index + 1)}
		if *ev.Result != want || st.Results[ev.Index] != want {
			t.Errorf("cell %d after the eviction: event %+v, snapshot %+v; want %+v", ev.Index, *ev.Result, st.Results[ev.Index], want)
		}
	}
	if got, _, _ := target.EventsSince(0); !reflect.DeepEqual(got, live) {
		t.Errorf("the evicted job's log\n%+v\ndiffers from the one its follower read\n%+v", got, live)
	}
}
