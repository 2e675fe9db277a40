package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"shift"
)

// Spans are recorded by the benchmark's own wrappers around the calls
// into each layer; no tracing code lives outside benchmark/. They stay
// in memory while the traced repetitions run and are written once, at
// the end, with a self-time table.

// span is one timed interval. Trace groups the spans of one repetition
// (sweeps) or one job (service); Parent is the ID of the span that
// caused this one, 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder collects spans. A nil recorder records nothing, so the
// untraced path pays one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (r *recorder) begin(trace, name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name, StartNs: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNs = now
	r.mu.Unlock()
}

// selfRow is one line of the self-time table: all spans of one name.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	// SelfShare is this name's self time as a share of all self time,
	// which equals the traced wall time of the root spans.
	SelfShare float64 `json:"self_share"`
}

// selfTimes computes, per span, its duration minus the part of that
// interval its child spans cover (children may overlap each other — two
// clients under one repetition — so the covered part is a union, not a
// sum), and totals the result by span name.
func selfTimes(spans []span) []selfRow {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*selfRow)
	var allSelf float64
	for _, s := range spans {
		dur := s.EndNs - s.StartNs
		self := dur - covered(s, children[s.ID])
		row := rows[s.Name]
		if row == nil {
			row = &selfRow{Name: s.Name}
			rows[s.Name] = row
		}
		row.Count++
		row.TotalMs += float64(dur) / 1e6
		row.SelfMs += float64(self) / 1e6
		allSelf += float64(self) / 1e6
	}
	out := make([]selfRow, 0, len(rows))
	for _, row := range rows {
		if allSelf > 0 {
			row.SelfShare = row.SelfMs / allSelf
		}
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMs != out[j].SelfMs {
			return out[i].SelfMs > out[j].SelfMs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total int64
	curStart, curEnd := int64(0), int64(-1)
	for _, k := range kids {
		s, e := k.StartNs, k.EndNs
		if s < parent.StartNs {
			s = parent.StartNs
		}
		if e > parent.EndNs {
			e = parent.EndNs
		}
		if e <= s {
			continue
		}
		if curEnd < curStart || s > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}

// traceName is the name of a workload's trace file: a traced worker
// writes it into its scratch directory, the harness moves it to out/.
func traceName(workload string) string { return "trace_" + workload + ".json" }

// traceFile is what trace_<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Counters are deltas over the traced repetitions: EngineStats for
	// the sweeps, /v1/stats for the service workloads.
	Counters map[string]int64 `json:"counters"`
	Self     []selfRow        `json:"self_time"`
	Spans    []span           `json:"spans"`
}

func (r *recorder) write(path, workload string, seed int64, counters map[string]int64) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	data, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Counters: counters,
		Self: selfTimes(spans), Spans: spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedStore is the timing ResultStore decorator: one span per Lookup
// and Store under whatever span is current.
type tracedStore struct {
	shift.ResultStore
	rec *recorder
	cur *current
}

// current is the span the decorators hang their spans under. The traced
// sweeps run with engine parallelism 1 and one RunAll at a time, so one
// slot is enough.
type current struct {
	mu     sync.Mutex
	trace  string
	parent int
}

func (c *current) set(trace string, parent int) {
	c.mu.Lock()
	c.trace, c.parent = trace, parent
	c.mu.Unlock()
}

func (c *current) get() (string, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trace, c.parent
}

func (s tracedStore) Lookup(key string) (shift.RunResult, bool) {
	tr, parent := s.cur.get()
	id := s.rec.begin(tr, "store.lookup", parent)
	defer s.rec.end(id)
	return s.ResultStore.Lookup(key)
}

func (s tracedStore) Store(key string, r shift.RunResult) {
	tr, parent := s.cur.get()
	id := s.rec.begin(tr, "store.store", parent)
	defer s.rec.end(id)
	s.ResultStore.Store(key, r)
}

// tracedExec is the timing Executor: the engine's default strategy
// (shift.Run / shift.RunBatch) with a span around each call.
type tracedExec struct {
	rec *recorder
	cur *current
}

func (x tracedExec) ExecCell(cfg shift.Config) (shift.RunResult, error) {
	tr, parent := x.cur.get()
	id := x.rec.begin(tr, "exec.cell", parent)
	defer x.rec.end(id)
	return shift.Run(cfg)
}

func (x tracedExec) ExecBatch(cfgs []shift.Config) ([]shift.RunResult, error) {
	tr, parent := x.cur.get()
	id := x.rec.begin(tr, "exec.batch", parent)
	defer x.rec.end(id)
	return shift.RunBatch(cfgs)
}
