package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shift"
)

// refusingJournal is a journal that refuses every append of one op.
type refusingJournal struct {
	Journal
	op string
}

func (r refusingJournal) Append(e Entry) error {
	if e.Op == r.op {
		return errors.New("disk full")
	}
	return r.Journal.Append(e)
}

// TestCancelJournalRefusedKeepsJobRunning: a cancellation the journal
// refuses is not acknowledged and does not take effect — no follower sees
// it, the job finishes done, and so does its replay — since a restart
// would have undone it.
func TestCancelJournalRefusedKeepsJobRunning(t *testing.T) {
	b, store, jn := newBlockingRunner(), newMemStore(), &memJournal{}
	run := func(cfg shift.Config) (shift.RunResult, error) {
		b.run(cfg)
		return storingRunner(store, nil)(cfg)
	}
	m, err := Open(Config{Workers: 1, Journal: refusingJournal{jn, opCancel}, Lookup: store.Lookup, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cells := []shift.Cell{testCell("a", 1), testCell("b", 2), testCell("c", 3)}
	j, err := m.Submit(cells)
	if err != nil {
		t.Fatal(err)
	}
	// A follower polls the job's status throughout, another tracks its
	// events.
	stop, sawCancel := make(chan struct{}), make(chan bool, 1)
	go func() {
		seen := false
		for {
			st := j.Snapshot()
			seen = seen || st.CancelRequested || st.State == StateCancelled || st.Dropped > 0
			select {
			case <-stop:
				sawCancel <- seen
				return
			default:
			}
		}
	}()
	attached, done := make(chan struct{}), make(chan []Event, 1)
	go func() { done <- followLive(j, attached) }()
	<-attached
	b.awaitStart(t)

	if _, err := m.Cancel(j.ID()); err == nil {
		t.Fatal("Cancel acknowledged a cancellation the journal refused")
	}
	if st := j.Snapshot(); st.CancelRequested || st.Dropped != 0 || st.State.Terminal() {
		t.Fatalf("after a refused cancel the job reads %+v, want it running untouched", st)
	}
	for range cells {
		b.release <- struct{}{}
	}
	evs := <-done
	close(stop)
	if <-sawCancel {
		t.Error("a follower saw a cancellation the journal refused")
	}
	if end := evs[len(evs)-1]; end.Type != EventEnd || end.State != StateDone || len(evs) != len(cells)+1 {
		t.Fatalf("follower saw %d events ending %+v, want every cell then done", len(evs), end)
	}
	if s := m.Stats(); s.Cancelled != 0 || s.JournalErrors != 1 {
		t.Errorf("Cancelled = %d, JournalErrors = %d; want 0 and 1", s.Cancelled, s.JournalErrors)
	}

	// The restart reads what the followers saw.
	m2, err := Open(Config{Workers: 1, Journal: jn.reopen(), Lookup: store.Lookup, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	r, ok := m2.Get(j.ID())
	if !ok {
		t.Fatal("job lost across the restart")
	}
	if st := r.Snapshot(); st.State != StateDone || st.CancelRequested {
		t.Errorf("replayed job reads %v (cancel requested %v), want done", st.State, st.CancelRequested)
	}
}

// view is what a follower of one job can see: its status and its events.
type view struct {
	st    Status
	evs   []Event
	ended bool
}

func viewOf(j *Job) view {
	evs, ended, _ := j.EventsSince(0)
	return view{j.Snapshot(), evs, ended}
}

// sameEvent compares two events field by field, results by value.
func sameEvent(a, b Event) bool {
	if a.Type != b.Type || a.Index != b.Index || a.Label != b.Label || a.Key != b.Key ||
		a.Err != b.Err || a.State != b.State || (a.Result == nil) != (b.Result == nil) {
		return false
	}
	return a.Result == nil || *a.Result == *b.Result
}

// covers says how replayed view r fails to show what a follower saw in
// live view l, "" when it does not: every event l holds is r's at the same
// position, an end l holds r holds too, and so does a cancel. With exact —
// no record is journaled but unapplied — r must not be ahead either, but
// for one thing: a restart abandons a cancelled job's running cells, so
// such a job ends cancelled.
func covers(l, r view, exact bool) string {
	if len(r.evs) < len(l.evs) {
		return fmt.Sprintf("a follower saw %d events, the replay has %d", len(l.evs), len(r.evs))
	}
	for p := range l.evs {
		if !sameEvent(l.evs[p], r.evs[p]) {
			return fmt.Sprintf("event %d: a follower saw %+v, the replay has %+v", p, l.evs[p], r.evs[p])
		}
	}
	if l.ended && (!r.ended || len(r.evs) != len(l.evs)) {
		return fmt.Sprintf("a follower saw the job end %v, the replay has %d events, ended %v", l.st.State, len(r.evs), r.ended)
	}
	if l.st.CancelRequested && !r.st.CancelRequested {
		return "a follower saw a cancel the replay lacks"
	}
	if !exact {
		return ""
	}
	switch {
	case r.st.CancelRequested != l.st.CancelRequested:
		return "the replay has a cancel no follower saw"
	case l.st.Completed != r.st.Completed || l.st.Failed != r.st.Failed:
		return fmt.Sprintf("completed/failed %d/%d live, %d/%d replayed", l.st.Completed, l.st.Failed, r.st.Completed, r.st.Failed)
	case l.ended:
		if l.st.Dropped != r.st.Dropped {
			return fmt.Sprintf("dropped %d live, %d replayed", l.st.Dropped, r.st.Dropped)
		}
	case l.st.CancelRequested:
		if !r.ended || len(r.evs) != len(l.evs)+1 || r.st.State != StateCancelled {
			return fmt.Sprintf("a cancelled job whose running cells a restart abandons replays to %v (ended %v)", r.st.State, r.ended)
		}
	case r.ended || len(r.evs) != len(l.evs) || r.st.Dropped != 0:
		return fmt.Sprintf("the replay is ahead: %d events, ended %v, %d dropped", len(r.evs), r.ended, r.st.Dropped)
	}
	return ""
}

// checkingJournal is an in-memory journal that calls check with what it
// holds before every append and after every compaction, while no other
// record can land.
type checkingJournal struct {
	mu          sync.Mutex
	entries     []Entry
	compactions int
	check       func(held []Entry)
}

func (c *checkingJournal) Replay() ([]Entry, error) { return nil, nil }
func (c *checkingJournal) Stats() JournalStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return JournalStats{Records: len(c.entries)}
}
func (c *checkingJournal) Close() error { return nil }

func (c *checkingJournal) Append(e Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.check(slices.Clone(c.entries))
	c.entries = append(c.entries, e)
	return nil
}

func (c *checkingJournal) Compact(es []Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.compactions++
	c.entries = slices.Clone(es)
	c.check(slices.Clone(c.entries))
	return nil
}

func (c *checkingJournal) held() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.entries)
}

// gatedCall is one RunBatch call held until the script answers it with
// each cell's outcome.
type gatedCall struct {
	ks      []shift.KeyedConfig
	outcome chan []error
}

// TestLiveEqualsReplayed runs seeded scripts — submissions from several
// clients, batched, failing and transiently retried cells, cancels, some
// racing the completion of the job's cells, compactions and a drain —
// against a live manager, and after every append opens a fresh manager on
// exactly what the journal held: everything a follower could have seen by
// then must replay the same. Whenever the manager is idle the replay must
// equal it.
func TestLiveEqualsReplayed(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { liveEqualsReplayed(t, seed) })
	}
}

func liveEqualsReplayed(t *testing.T, seed int64) {
	const workers = 2
	rng := rand.New(rand.NewSource(seed))
	store := newMemStore()
	quit := make(chan struct{})
	defer close(quit)

	var mu sync.Mutex // guards known, isSync, mismatch
	var known []*Job  // by script job number, which is every cell's seed
	isSync := make(map[*Job]bool)
	var mismatch string
	compare := func(held []Entry, exact bool) string {
		fresh, err := Open(Config{Workers: 1, Journal: &memJournal{replayed: held}, Lookup: store.Lookup,
			RunBatch: func(ks []shift.KeyedConfig) ([]shift.RunResult, []error) {
				<-quit
				return make([]shift.RunResult, len(ks)), make([]error, len(ks))
			}})
		if err != nil {
			return err.Error()
		}
		defer fresh.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, j := range known {
			r, ok := fresh.Get(j.ID())
			if !ok {
				if isSync[j] {
					continue // replay drops a terminal sync job
				}
				return fmt.Sprintf("job %s lost in the replay of %d records", j.ID(), len(held))
			}
			if d := covers(viewOf(j), viewOf(r), exact); d != "" {
				return fmt.Sprintf("job %s, replay of %d records: %s", j.ID(), len(held), d)
			}
		}
		return ""
	}
	var checks atomic.Int64
	jn := &checkingJournal{check: func(held []Entry) {
		checks.Add(1)
		if d := compare(held, false); d != "" {
			mu.Lock()
			if mismatch == "" {
				mismatch = d
			}
			mu.Unlock()
		}
	}}
	calls := make(chan *gatedCall, 16)
	m, err := Open(Config{Workers: workers, Retries: 1, Journal: jn, Lookup: store.Lookup,
		RunBatch: func(ks []shift.KeyedConfig) ([]shift.RunResult, []error) {
			c := &gatedCall{ks: ks, outcome: make(chan []error)}
			calls <- c
			errs := <-c.outcome
			rs := make([]shift.RunResult, len(ks))
			for i, k := range ks {
				if errs[i] == nil {
					rs[i] = shift.RunResult{Workload: k.Config().Workload, MPKI: float64(k.Config().MeasureRecords)}
					store.put(k.Key(), rs[i])
				}
			}
			return rs, errs
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var pending []*gatedCall
	// settle waits until every worker is idle or held in RunBatch.
	settle := func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			for more := true; more; {
				select {
				case c := <-calls:
					pending = append(pending, c)
				default:
					more = false
				}
			}
			n := 0
			for _, c := range pending {
				n += len(c.ks)
			}
			st := m.Stats()
			if st.Running == n && (st.QueueDepth == 0 || len(pending) == workers || st.Draining) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("manager never settled: %+v with %d calls held", st, len(pending))
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	// release answers a held call: most cells succeed, some fail, some
	// fail transiently.
	release := func(k int) {
		c := pending[k]
		pending = slices.Delete(pending, k, k+1)
		errs := make([]error, len(c.ks))
		for i := range errs {
			switch p := rng.Float64(); {
			case p < 0.15:
				errs[i] = errors.New("boom")
			case p < 0.3:
				errs[i] = &shift.TimeoutError{Timeout: time.Millisecond, Cells: 1}
			}
		}
		c.outcome <- errs
	}
	jobOf := func(c *gatedCall) *Job {
		mu.Lock()
		defer mu.Unlock()
		return known[c.ks[0].Config().Seed]
	}
	verify := func(what string, exact bool) {
		t.Helper()
		settle()
		mu.Lock()
		d := mismatch
		mu.Unlock()
		if d == "" && exact {
			d = compare(jn.held(), true)
		}
		if d != "" {
			t.Fatalf("after %s: %s", what, d)
		}
	}

	clients := []string{"", "alice", "bob"}
	for step := 0; step < 150; step++ {
		var what string
		switch k := rng.Intn(10); {
		case k < 3:
			// Cells of up to three streams; a job's cells share its
			// number as their seed, which never splits a stream.
			cells := make([]shift.Cell, 1+rng.Intn(5))
			for i := range cells {
				cells[i] = testCell(fmt.Sprint("w", rng.Intn(3)), int64(1+rng.Intn(3)))
				cells[i].Config.Seed = int64(len(known))
			}
			client, sync := clients[rng.Intn(len(clients))], rng.Intn(4) == 0
			submit := m.SubmitFrom
			if sync {
				submit = m.SubmitSyncFrom
			}
			j, err := submit(client, cells)
			var admission *AdmissionError
			if errors.As(err, &admission) {
				what = "a submission the client's bucket refused"
				break
			} else if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			known = append(known, j)
			isSync[j] = sync
			mu.Unlock()
			what = fmt.Sprintf("submitting %s (%d cells, sync %v)", j.ID(), len(cells), sync)
		case k < 7 && len(pending) > 0:
			c := pending[rng.Intn(len(pending))]
			release(slices.Index(pending, c))
			what = fmt.Sprintf("completing a batch of %s", jobOf(c).ID())
		case k < 8 && len(known) > 0:
			j := known[rng.Intn(len(known))]
			m.Cancel(j.ID())
			what = "cancelling " + j.ID()
		case k < 9 && len(pending) > 0:
			// The cancel races the completion of the job's batch.
			k := rng.Intn(len(pending))
			j := jobOf(pending[k])
			done := make(chan struct{})
			go func() {
				defer close(done)
				m.Cancel(j.ID())
			}()
			release(k)
			<-done
			what = "cancelling " + j.ID() + " while its batch completes"
		default:
			checkpoint(m)
			what = "a compaction"
		}
		verify(what, true)
	}
	drained := make(chan error)
	go func() { drained <- m.Drain(context.Background()) }()
	for {
		select {
		case err := <-drained:
			if err != nil {
				t.Fatal(err)
			}
			verify("the drain", true)
			st := m.Stats()
			t.Logf("%d records checked after %d jobs, %d cancelled, %d cell retries, %d compactions",
				checks.Load(), st.Admitted, st.Cancelled, st.Retried, jn.compactions)
			if got, want := len(jn.held()), m.Stats().Retained; got < want {
				t.Errorf("the drained journal holds %d records for %d jobs", got, want)
			}
			return
		case c := <-calls:
			pending = append(pending, c)
		case <-time.After(time.Millisecond):
		}
		for len(pending) > 0 {
			release(0)
		}
	}
}

// fuzzEntries decodes data, three bytes a record, into a journal: every
// op, valid or not, on four job IDs and a few malformed ones, with cell
// indices and snapshot ops in and out of range.
func fuzzEntries(data []byte) []Entry {
	var es []Entry
	for ; len(data) >= 3; data = data[3:] {
		op, jb, cb := data[0], data[1], data[2]
		id := jobID(int64(jb%4) + 1)
		switch jb >> 5 {
		case 6:
			id = "j-99999999999999999999"
		case 7:
			id = "bogus"
		}
		cell := int(int8(cb)) % 5
		e := Entry{Job: id, Cell: cell, Sync: cb&0x80 != 0, Cancelled: jb&0x10 != 0}
		cells := make([]EntryCell, cb%4)
		for i := range cells {
			c := testCell(fmt.Sprint("w", i%2), int64(1+i))
			cells[i] = EntryCell{Label: c.Label, Config: c.Config}
		}
		switch op % 8 {
		case 0:
			e.Op, e.Cells = opSubmit, cells
		case 1:
			e.Op = opCell
		case 2:
			e.Op, e.Err = opCell, "boom"
		case 3:
			e.Op = opCancel
		case 4:
			e.Op, e.State = opEnd, StateDone
		case 5:
			e.Op, e.Cells = opSnap, cells
			e.Ops = []CellOp{{Cell: cell}, {Cell: cell + 1, Err: "boom"}, {Cell: cell}}
		case 6:
			e.Op = opLastID
		default:
			e.Op = "bogus"
		}
		es = append(es, e)
	}
	return es
}

// FuzzReplay opens managers over arbitrary journals through apply: no
// record panics, no job resolves more cells than it has, and replay is
// deterministic — two opens of the same records agree on every job.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 0, 0, 2, 0, 1, 3, 0, 0, 1, 0, 2})
	f.Add([]byte{5, 0x11, 2, 0, 1, 0x82, 3, 1, 0, 1, 1, 0xff, 6, 0xc0, 0, 4, 0, 0})
	f.Add([]byte{0, 0, 2, 3, 0, 0, 1, 0, 1, 5, 0, 2, 0, 0xe0, 1, 7, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries := fuzzEntries(data)
		quit := make(chan struct{})
		defer close(quit)
		at := time.Unix(1e9, 0)
		open := func() *Manager {
			m, err := Open(Config{Workers: 1, Journal: &memJournal{replayed: entries},
				Lookup: func(key string) (shift.RunResult, bool) {
					return shift.RunResult{Workload: key}, key[len(key)-1]%2 == 0
				},
				RunBatch: func(ks []shift.KeyedConfig) ([]shift.RunResult, []error) {
					<-quit
					return make([]shift.RunResult, len(ks)), make([]error, len(ks))
				},
				Now: func() time.Time { return at }})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		a, b := open(), open()
		defer a.Close()
		defer b.Close()
		if sa, sb := a.Recovery(), b.Recovery(); sa != sb {
			t.Fatalf("recovery stats differ: %+v and %+v", sa, sb)
		}
		for n := int64(1); n <= 4; n++ {
			ja, oka := a.Get(jobID(n))
			jb, okb := b.Get(jobID(n))
			if oka != okb {
				t.Fatalf("job %d retained by one open only", n)
			}
			if !oka {
				continue
			}
			va, vb := viewOf(ja), viewOf(jb)
			if st := va.st; st.Completed+st.Failed+st.Dropped > st.Cells {
				t.Fatalf("job %d resolves %d+%d+%d of %d cells", n, st.Completed, st.Failed, st.Dropped, st.Cells)
			}
			// A worker may have started a cell of either: that is not
			// replay.
			for _, v := range []*view{&va, &vb} {
				if !v.st.State.Terminal() {
					v.st.State, v.st.Started = "", time.Time{}
				}
			}
			if d := covers(va, vb, true); d != "" || !reflect.DeepEqual(va.st, vb.st) {
				t.Fatalf("job %d replays two ways: %s\n%+v\n%+v", n, d, va.st, vb.st)
			}
		}
	})
}

// TestJournalFixtureReplays: testdata/journal.wal was written by the
// manager before every change went through apply — raw submit, cell,
// cancel and end records after compacted ones, written by jobs that
// finished done, failed and cancelled, a sync job that left, and jobs cut
// off mid-run — and testdata/journal.golden is what that manager read back
// from it. The format is unchanged, so this one must read the same.
func TestJournalFixtureReplays(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jobs.wal")
	if err := os.WriteFile(path, b, 0o600); err != nil {
		t.Fatal(err)
	}
	jn, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "journal.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := dumpRegistry(openFixture(t, jn)); got != string(want) {
		t.Errorf("the fixture journal replays to\n%s\nwant\n%s", got, want)
	}
}

// fixtureClock is the fixture's clock: one second past t0 per reading.
func fixtureClock() func() time.Time {
	var n atomic.Int64
	return func() time.Time { return time.Unix(1_700_000_000+n.Add(1), 0).UTC() }
}

// openFixture opens a manager over jn whose store holds a result for every
// key starting with a digit, and whose workers never finish a cell.
func openFixture(t *testing.T, jn Journal) *Manager {
	t.Helper()
	quit := make(chan struct{})
	t.Cleanup(func() { close(quit) })
	m, err := Open(Config{Workers: 1, Journal: jn, Now: fixtureClock(),
		Lookup: func(key string) (shift.RunResult, bool) {
			return shift.RunResult{Workload: "stored", MPKI: float64(key[1])}, key[0] <= '9'
		},
		RunBatch: func(ks []shift.KeyedConfig) ([]shift.RunResult, []error) {
			<-quit
			return make([]shift.RunResult, len(ks)), make([]error, len(ks))
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// dumpRegistry renders what m's followers can read of jobs j-000001 to
// j-000008 — state, counts, cancel flag and events in order — its
// recovery counters, and the ID its next job gets.
func dumpRegistry(m *Manager) string {
	var b strings.Builder
	for n := int64(1); n <= 8; n++ {
		j, ok := m.Get(jobID(n))
		if !ok {
			fmt.Fprintf(&b, "%s: not retained\n", jobID(n))
			continue
		}
		evs, _, _ := j.EventsSince(0)
		st := j.Snapshot()
		state := st.State
		if !state.Terminal() {
			state = "pending"
		}
		fmt.Fprintf(&b, "%s: %s cancel=%v cells=%d completed=%d failed=%d dropped=%d created=%s\n", st.ID, state,
			st.CancelRequested, st.Cells, st.Completed, st.Failed, st.Dropped, st.Created.UTC().Format(time.RFC3339))
		for _, ev := range evs {
			switch {
			case ev.Type == EventEnd:
				fmt.Fprintf(&b, "  end %s\n", ev.State)
			case ev.Err != "":
				fmt.Fprintf(&b, "  cell %d %s %s: %s\n", ev.Index, ev.Label, ev.Key, ev.Err)
			default:
				fmt.Fprintf(&b, "  cell %d %s %s: %+v\n", ev.Index, ev.Label, ev.Key, *ev.Result)
			}
		}
	}
	fmt.Fprintf(&b, "recovery: %+v\n", m.Recovery())
	st := m.Stats()
	fmt.Fprintf(&b, "retained: %d jobs, %d cells\n", st.Retained, st.RetainedCells)
	if j, err := m.Submit([]shift.Cell{testCell("next", 1)}); err == nil {
		fmt.Fprintf(&b, "next: %s\n", j.ID())
	}
	return b.String()
}
