package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"shift"
	"shift/internal/jobs"
	"shift/internal/race"
)

// TestReplayedJobAllocs is the allocation budget of a replayed job through
// shiftd: a POST of a six-design job whose every cell is a store hit, a
// wait for its end, and a GET of its stream. What the same httptest
// requests and recorders cost against a handler that does nothing is
// subtracted, so the budget is what shiftd, the job manager and the
// engine allocate for the job (125 allocations and 17.2 KB before results
// were encoded once per shared entry and the submit path was trimmed).
func TestReplayedJobAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector: allocation counts are not the production ones")
	}
	const (
		allocBudget = 80
		byteBudget  = 10 << 10
	)
	srv, jm := newAllocServer()
	h := srv.handler()

	var cells []map[string]any
	for _, d := range []string{"Baseline", "NextLine", "PIF_2K", "PIF_32K", "ZeroLat-SHIFT", "SHIFT"} {
		cells = append(cells, map[string]any{"workload": "OLTP Oracle", "design": d, "cores": 4,
			"warmup_records": 500, "measure_records": 500, "seed": 7})
	}
	body, err := json.Marshal(map[string]any{"cells": cells})
	if err != nil {
		t.Fatal(err)
	}
	// Every submit takes the next job ID, so the stream paths are known in
	// advance and cost the measured loop nothing.
	next := 0
	var streams []string
	for k := 1; k <= 3*(allocRuns+1)+1; k++ {
		streams = append(streams, fmt.Sprintf("/v1/jobs/j-%06d/stream", k))
	}
	replay := func(h http.Handler, wait bool) {
		sub := allocRecorder()
		h.ServeHTTP(sub, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		id := streams[next][len("/v1/jobs/") : len(streams[next])-len("/stream")]
		if wait {
			if sub.Code != http.StatusAccepted {
				t.Fatalf("submit = %d: %s", sub.Code, sub.Body)
			}
			j, ok := jm.Get(id)
			if !ok {
				t.Fatalf("job %s not registered", id)
			}
			for {
				_, terminal, changed := j.EventsSince(math.MaxInt)
				if terminal {
					break
				}
				<-changed
			}
		}
		stream := allocRecorder()
		h.ServeHTTP(stream, httptest.NewRequest(http.MethodGet, streams[next], nil))
		if wait && stream.Code != http.StatusOK {
			t.Fatalf("stream = %d", stream.Code)
		}
		next++
	}
	replay(h, true) // the cold job: simulates and seeds the store

	allocs, size, harnessAllocs, harnessBytes := allocsPerCall(h, replay)
	t.Logf("a replayed six-cell job: %.0f allocations, %.0f B (harness %.0f, %.0f B subtracted)",
		allocs, size, harnessAllocs, harnessBytes)
	if allocs > allocBudget || size > byteBudget {
		t.Errorf("a replayed six-cell job makes %.0f allocations of %.0f B, budget %d and %d B",
			allocs, size, allocBudget, byteBudget)
	}
}

// TestReplayedRunAllocs is the allocation budget of a replayed POST
// /v1/run, the synchronous path: a one-cell job submitted, waited for and
// rendered from its snapshot, its cell a store hit. The harness is
// subtracted as in TestReplayedJobAllocs; it measures ≈ 49 allocations
// and 6.4 KB.
func TestReplayedRunAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector: allocation counts are not the production ones")
	}
	const (
		allocBudget = 51
		byteBudget  = 6700
	)
	srv, _ := newAllocServer()
	h := srv.handler()
	body := []byte(`{"workload": "OLTP Oracle", "design": "SHIFT", "cores": 4, "warmup_records": 500, "measure_records": 500, "seed": 7}`)
	run := func(h http.Handler, check bool) {
		rec := allocRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if check && rec.Code != http.StatusOK {
			t.Fatalf("run = %d: %s", rec.Code, rec.Body)
		}
	}
	run(h, true) // the cold call: simulates and seeds the store

	allocs, size, harnessAllocs, harnessBytes := allocsPerCall(h, run)
	t.Logf("a replayed /v1/run: %.0f allocations, %.0f B (harness %.0f, %.0f B subtracted)",
		allocs, size, harnessAllocs, harnessBytes)
	if allocs > allocBudget || size > byteBudget {
		t.Errorf("a replayed /v1/run makes %.0f allocations of %.0f B, budget %d and %d B",
			allocs, size, allocBudget, byteBudget)
	}
}

// TestReplayedRunsHeapBytesBounded: a POST /v1/run job leaves the job
// registry when it is answered, so 100,000 replayed calls leave the live
// heap within 1 MB of where it stood after the first thousand. When every
// such job stayed in the registry they grew it by 47.5 MB.
func TestReplayedRunsHeapBytesBounded(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector: heap readings are not the production ones")
	}
	const warm, calls = 1000, 100000
	srv, jm := newAllocServer()
	h := srv.handler()
	body := []byte(`{"workload": "OLTP Oracle", "design": "SHIFT", "cores": 4, "warmup_records": 500, "measure_records": 500, "seed": 7}`)
	run := func(n int) {
		for i := 0; i < n; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("run = %d: %s", rec.Code, rec.Body)
			}
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run(warm) // the cold call, then a full latency ring
	before := heap()
	run(calls)
	after := heap()
	st := jm.Stats()
	t.Logf("%d replayed /v1/run calls: heap %d B -> %d B; %d jobs retained, %d evicted", calls, before, after, st.Retained, st.Evicted)
	if after > before+1<<20 {
		t.Errorf("%d replayed /v1/run calls grew the live heap by %d B, limit 1 MB", calls, after-before)
	}
}

// TestColdCellHeapBytes: a finished cold /v1/jobs cell — a cell shiftd
// never saw, stored by the engine and retained by the job registry —
// grows the live heap of a server wired as main wires its default
// in-memory store by at most 640 B. The registry shares the store's
// entry: when it held a second copy of every result, a cell cost ≈ 840 B.
func TestColdCellHeapBytes(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector: heap readings are not the production ones")
	}
	const warm, measured, limit = 8, 96, 640
	designs := [...]string{"Baseline", "NextLine", "PIF_2K", "PIF_32K", "ZeroLat-SHIFT", "SHIFT"}
	srv, jm := newAllocServer()
	h := srv.handler()
	// Job k's cells are the six designs of a window no other job has.
	submit := func(k int) {
		cells := make([]map[string]any, len(designs))
		for d, design := range designs {
			cells[d] = map[string]any{"workload": "OLTP Oracle", "design": design, "cores": 4,
				"warmup_records": 500, "measure_records": 500 + k, "seed": 7}
		}
		body, err := json.Marshal(map[string]any{"cells": cells})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		var resp jobSubmitResponse
		if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil || rec.Code != http.StatusAccepted {
			t.Fatalf("submit = %d (%v)", rec.Code, err)
		}
		j, ok := jm.Get(resp.ID)
		if !ok {
			t.Fatalf("job %s not registered", resp.ID)
		}
		for {
			_, terminal, changed := j.EventsSince(math.MaxInt)
			if terminal {
				break
			}
			<-changed
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for k := 0; k < warm; k++ {
		submit(k) // the workload's graph, the free lists and the first table growths
	}
	before := heap()
	for k := warm; k < warm+measured; k++ {
		submit(k)
	}
	after := heap()
	n := measured * len(designs)
	perCell := (int64(after) - int64(before)) / int64(n)
	st := jm.Stats()
	t.Logf("%d cold cells: heap %d B -> %d B, %d B a cell; %d cells retained, %d stored",
		n, before, after, perCell, st.RetainedCells, srv.store.Len())
	if st.RetainedCells != (warm+measured)*len(designs) {
		t.Fatalf("%d cells retained, want every cell: %d", st.RetainedCells, (warm+measured)*len(designs))
	}
	if perCell > limit {
		t.Errorf("a finished cold cell grows the live heap by %d B, limit %d B", perCell, limit)
	}
}

// allocRuns is how many calls allocsPerCall averages over.
const allocRuns = 200

// newAllocServer returns a server as main wires it, on one engine slot and
// one job worker, admission lifted so the measured loops are never
// refused, and its job manager.
func newAllocServer() (*server, *jobs.Manager) {
	rs := shift.NewResultCache()
	engine := shift.NewEngine(1, rs)
	jm := jobs.New(jobs.Config{Workers: 1, Rate: 1e9, Burst: 1e9, RunBatch: engine.RunKeyed, Results: rs})
	return newServer(engine, rs, testOpts(), jm, 1<<20), jm
}

// allocRecorder returns a recorder with room for any of the replies, so
// its growth is not counted.
func allocRecorder() *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	rec.Body = bytes.NewBuffer(make([]byte, 0, 16<<10))
	return rec
}

// allocsPerCall returns the allocations and bytes of one call(h, true),
// averaged over allocRuns calls on one processor, less the harness's:
// what call(noop, false) allocates on a handler that does nothing.
func allocsPerCall(h http.Handler, call func(h http.Handler, real bool)) (allocs, bytes, harnessAllocs, harnessBytes float64) {
	measure := func(h http.Handler, real bool) (allocs, bytes float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		call(h, real)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < allocRuns; i++ {
			call(h, real)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / allocRuns, float64(after.TotalAlloc-before.TotalAlloc) / allocRuns
	}
	allocs, bytes = measure(h, true)
	harnessAllocs, harnessBytes = measure(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}), false)
	return allocs - harnessAllocs, bytes - harnessBytes, harnessAllocs, harnessBytes
}

// TestDecodeBodyBytesBounded: the cells decodeBody makes room for before
// decoding are capped, so a body cannot buy a large slice with a small
// one's bytes. The body is one valid cell repeating its "design" key to
// the 1 MiB limit, which sized its slice at 87 378 cells (15.4 MB
// allocated) when the count was uncapped.
func TestDecodeBodyBytesBounded(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector: a dropped body buffer is regrown and counted")
	}
	const maxBody = 1 << 20
	var body bytes.Buffer
	body.WriteString(`{"cells": [{"workload": "Web Search"`)
	for body.Len()+len(`,"design":""`)+len(`}]}`) <= maxBody {
		body.WriteString(`,"design":""`)
	}
	body.WriteString(`}]}`)
	srv := &server{base: testOpts(), maxBody: maxBody}
	decode := func() {
		var req gridRequest
		rec := allocRecorder()
		if !srv.decodeBody(rec, httptest.NewRequest(http.MethodPost, "/v1/grid", bytes.NewReader(body.Bytes())), &req) || len(req.Cells) != 1 {
			t.Fatalf("decoding a valid body = %d %s, %d cells", rec.Code, rec.Body, len(req.Cells))
		}
	}
	decode() // grows the recycled body buffer to the body's size
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	size := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("a %d-byte body of one cell and %d \"design\" keys: %.0f B allocated", body.Len(),
		bytes.Count(body.Bytes(), []byte(`"design"`)), size)
	if size > 1<<20 {
		t.Errorf("decoding it allocates %.0f B, want < 1 MB", size)
	}
}
