package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"shift"
	"shift/internal/jobs"
)

// TestReplayedJobAllocs is the allocation budget of a replayed job through
// shiftd: a POST of a six-design job whose every cell is a store hit, a
// wait for its end, and a GET of its stream. What the same httptest
// requests and recorders cost against a handler that does nothing is
// subtracted, so the budget is what shiftd, the job manager and the
// engine allocate for the job (125 allocations and 17.2 KB before results
// were encoded once per shared entry and the submit path was trimmed).
func TestReplayedJobAllocs(t *testing.T) {
	if !syncPoolKeepsPuts() {
		t.Skip("race detector: allocation counts are not the production ones")
	}
	const (
		runs        = 200
		allocBudget = 80
		byteBudget  = 10 << 10
	)
	rs := shift.NewResultCache()
	engine := shift.NewEngine(1, rs)
	jm := jobs.New(jobs.Config{Workers: 1, Rate: 1e9, Burst: 1e9, RunBatch: engine.RunKeyed})
	t.Cleanup(jm.Close)
	srv := newServer(engine, rs, testOpts(), jm, 1<<20)
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
	for k := 1; k <= 3*(runs+1)+1; k++ {
		streams = append(streams, fmt.Sprintf("/v1/jobs/j-%06d/stream", k))
	}
	// recorder has room for any of the replies, so its growth is not
	// counted either.
	recorder := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		rec.Body = bytes.NewBuffer(make([]byte, 0, 16<<10))
		return rec
	}
	replay := func(h http.Handler, wait bool) {
		sub := recorder()
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
		stream := recorder()
		h.ServeHTTP(stream, httptest.NewRequest(http.MethodGet, streams[next], nil))
		if wait && stream.Code != http.StatusOK {
			t.Fatalf("stream = %d", stream.Code)
		}
		next++
	}
	replay(h, true) // the cold job: simulates and seeds the store

	measure := func(h http.Handler, wait bool) (allocs, bytes float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		replay(h, wait)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			replay(h, wait)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	allocs, size := measure(h, true)
	harnessAllocs, harnessBytes := measure(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}), false)
	allocs, size = allocs-harnessAllocs, size-harnessBytes
	t.Logf("a replayed six-cell job: %.0f allocations, %.0f B (harness %.0f, %.0f B subtracted)",
		allocs, size, harnessAllocs, harnessBytes)
	if allocs > allocBudget || size > byteBudget {
		t.Errorf("a replayed six-cell job makes %.0f allocations of %.0f B, budget %d and %d B",
			allocs, size, allocBudget, byteBudget)
	}
}

// syncPoolKeepsPuts reports whether a sync.Pool returns what was just put
// in it, which the race detector makes it refuse at random: allocation
// counts taken under it are not the production ones.
func syncPoolKeepsPuts() bool {
	var p sync.Pool
	dropped := 0
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			dropped++
		}
	}
	return dropped <= 2
}
