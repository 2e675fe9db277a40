// Recovery: durable jobs surviving a crash. The demo wires a
// journal-backed job manager exactly as shiftd does under -state-dir,
// kills it SIGKILL-style mid-job — one cell completed and journaled,
// one in flight, one still queued, plus a half-written journal record
// on disk — and then reopens the same state directory. The journal
// replays: the completed cell restores from the result store without
// re-simulating, the unfinished cells re-run, and the recovered job's
// results are byte-identical to an uninterrupted run.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"shift"
	"shift/internal/jobs"
)

// cells is the job: three same-cost cells, so the single worker runs
// them in submission order — and of three workloads, so each is a
// queue entry of its own (the cells of one workload would share its
// record stream and run, finish and journal together as one batch).
func cells() []shift.Cell {
	mk := func(w string, d shift.Design) shift.Cell {
		cfg := shift.DefaultRunConfig(w, d)
		cfg.Cores = 4
		cfg.WarmupRecords = 8000
		cfg.MeasureRecords = 8000
		return shift.Cell{Label: w + "/" + d.String(), Config: cfg}
	}
	return []shift.Cell{
		mk("Web Search", shift.DesignBaseline),
		mk("OLTP Oracle", shift.DesignSHIFT),
		mk("DSS Qry 2", shift.DesignTIFS),
	}
}

func main() {
	dir, err := os.MkdirTemp("", "shift-recovery-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	walPath := filepath.Join(dir, "jobs.wal")

	// One result store shared across both "processes" — it stands in
	// for the durable -cache-dir tier that survives restarts for real.
	store := shift.NewResultCache()

	// The reference: the same three cells, uninterrupted.
	var ref []shift.RunResult
	for _, c := range cells() {
		r, err := shift.Run(c.Config)
		if err != nil {
			log.Fatal(err)
		}
		ref = append(ref, r)
	}

	// ---- process 1: accept the job, die mid-way ----------------------
	engine1 := shift.NewEngine(0, store)
	var calls atomic.Int32
	blocked := make(chan struct{}, 8)
	crash := make(chan struct{})
	journal1, err := jobs.OpenWAL(walPath)
	if err != nil {
		log.Fatal(err)
	}
	m1, err := jobs.Open(jobs.Config{
		Workers: 1,
		Journal: journal1,
		Lookup:  store.Lookup,
		// The first cell runs for real; later cells stall at a gate so
		// the crash lands with deterministic progress.
		Run: func(cfg shift.Config) (shift.RunResult, error) {
			if calls.Add(1) > 1 {
				blocked <- struct{}{}
				<-crash
				return shift.RunResult{}, errors.New("process died mid-cell")
			}
			return engine1.RunOne(cfg)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	job, err := m1.Submit(cells())
	if err != nil {
		log.Fatal(err)
	}
	<-blocked // cell 0 finished and journaled; cell 1 in flight; cell 2 queued
	fmt.Printf("job %s accepted and journaled; crashing with %d/3 cells done\n",
		job.ID(), job.Snapshot().Completed)

	// kill -9: the journal's file handle vanishes with the process; the
	// in-flight cell dies unacknowledged.
	journal1.Close()
	close(crash)

	// The crash also interrupted an append: a length prefix promising
	// 64 bytes with only 10 behind it — a torn tail.
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		log.Fatal(err)
	}
	var torn [14]byte
	binary.BigEndian.PutUint32(torn[:4], 64)
	f.Write(torn[:])
	f.Close()
	fmt.Printf("left a half-written journal record (%d bytes) behind\n\n", len(torn))

	// ---- process 2: replay the journal, finish the job ---------------
	engine2 := shift.NewEngine(0, store)
	journal2, err := jobs.OpenWAL(walPath)
	if err != nil {
		log.Fatal(err)
	}
	m2, err := jobs.Open(jobs.Config{
		Workers:  2,
		Journal:  journal2,
		Lookup:   store.Lookup,
		RunBatch: engine2.RunKeyed,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer m2.Close()
	rec := m2.Recovery()
	fmt.Printf("journal replayed: %d job re-admitted, %d cell restored from the store, %d cells re-queued\n",
		rec.JobsRecovered, rec.CellsRestored, rec.CellsRequeued)
	fmt.Printf("torn tail discarded: %d record, %d bytes\n", rec.TailRecords, rec.TailBytes)

	recovered, ok := m2.Get(job.ID())
	if !ok {
		log.Fatalf("job %s lost across the restart", job.ID())
	}
	for !recovered.Snapshot().State.Terminal() {
		time.Sleep(10 * time.Millisecond)
	}
	st := recovered.Snapshot()
	fmt.Printf("\njob %s after recovery: %s, %d/%d cells\n", st.ID, st.State, st.Completed, st.Cells)

	// Determinism closes the loop: the recovered results are
	// byte-identical to the uninterrupted run, and only the two cells
	// the crash interrupted were ever simulated again.
	for i, r := range st.Results {
		got, _ := json.Marshal(r)
		want, _ := json.Marshal(ref[i])
		verdict := "byte-identical"
		if !bytes.Equal(got, want) {
			verdict = "MISMATCH"
		}
		fmt.Printf("  %-20s throughput=%.2f  %s\n", st.Labels[i], r.Throughput, verdict)
	}
	fmt.Printf("new process simulated %d cells (the stored one was restored, not re-run)\n",
		engine2.Stats().Simulated)
}
