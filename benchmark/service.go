package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"shift"
)

// The service workloads drive a shiftd child over HTTP with a closed
// loop of `clients` clients: each submits a job (POST /v1/jobs), follows
// its stream to the "end" event, and only then submits the next.

// wireCell is the subset of shiftd's cell document the benchmark sends.
type wireCell struct {
	Workload       string `json:"workload"`
	Design         string `json:"design"`
	Cores          int    `json:"cores"`
	WarmupRecords  int64  `json:"warmup_records"`
	MeasureRecords int64  `json:"measure_records"`
	Seed           int64  `json:"seed"`
}

type jobRequest struct {
	Cells []wireCell `json:"cells"`
}

type submitReply struct {
	ID        string `json:"id"`
	StreamURL string `json:"stream_url"`
}

// streamEvent is one NDJSON line of GET /v1/jobs/{id}/stream.
type streamEvent struct {
	Type   string           `json:"type"`
	Index  *int             `json:"index"`
	Key    string           `json:"key"`
	Result *shift.RunResult `json:"result"`
	Error  string           `json:"error"`
	State  string           `json:"state"`
}

// serviceStats is the part of GET /v1/stats the checks read.
type serviceStats struct {
	StoreHits    int64 `json:"store_hits"`
	StoreMisses  int64 `json:"store_misses"`
	Simulated    int64 `json:"simulated"`
	Batched      int64 `json:"batched"`
	QueueDepth   int64 `json:"queue_depth"`
	JobsAdmitted int64 `json:"jobs_admitted"`
	JobsRejected int64 `json:"jobs_rejected"`
}

func (s serviceStats) minus(o serviceStats) map[string]int64 {
	return map[string]int64{
		"store_hits": s.StoreHits - o.StoreHits, "store_misses": s.StoreMisses - o.StoreMisses,
		"simulated": s.Simulated - o.Simulated, "batched": s.Batched - o.Batched,
		"jobs_admitted": s.JobsAdmitted - o.JobsAdmitted, "jobs_rejected": s.JobsRejected - o.JobsRejected,
		"queue_depth_at_end": s.QueueDepth,
	}
}

// job is one request: the designs of one workload at one seed. configs
// is what shiftd must resolve the cells to, so a reply can be checked
// against the library.
type job struct {
	cells   []wireCell
	configs []shift.Config
}

// Rounds keep job seeds apart: priming, the warm-up repetition, then
// the timed and traced repetitions.
const (
	roundPrime  = 0
	roundWarmup = 1
	roundTimed  = 2
)

// jobSeed derives a seed no other job of this run (and no job of a run
// with another bench seed) uses, so a "cold" cell has never been seen.
func jobSeed(benchSeed int64, round, client, index int) int64 {
	return (benchSeed&0xFFFFF)<<40 | int64(round)<<24 | int64(client)<<20 | int64(index)
}

func (z sizing) makeJob(benchSeed int64, round, client, index int) job {
	seed := jobSeed(benchSeed, round, client, index)
	var j job
	for _, d := range z.designs {
		j.cells = append(j.cells, wireCell{
			Workload: clientWorkloads[client], Design: d.String(), Cores: z.svcCores,
			WarmupRecords: z.svcWarm, MeasureRecords: z.svcMeasure, Seed: seed,
		})
		j.configs = append(j.configs, shift.Config{
			Workload: clientWorkloads[client], Design: d, CoreType: shift.LeanOoO, Cores: z.svcCores,
			WarmupRecords: z.svcWarm, MeasureRecords: z.svcMeasure, Seed: seed,
		})
	}
	return j
}

// jobResult is what one job's stream delivered, by cell index.
type jobResult struct {
	results []shift.RunResult
	keys    []string
	got     []bool
	latency time.Duration // submit start to "end"
	submit  time.Duration // submit start to 202
}

// runJob submits j and follows it to its end. With a recorder it emits
// the client-side spans: encode, submit (POST to 202), stream.open (GET
// to response header), one stream.cell per cell event and stream.end.
func runJob(base, clientID string, j job, rec *recorder, trace string, parent int) (jobResult, error) {
	n := len(j.cells)
	out := jobResult{results: make([]shift.RunResult, n), keys: make([]string, n), got: make([]bool, n)}
	root := rec.begin(trace, "job", parent)
	defer rec.end(root)
	start := time.Now()

	id := rec.begin(trace, "encode", root)
	body, err := json.Marshal(jobRequest{Cells: j.cells})
	rec.end(id)
	if err != nil {
		return out, err
	}

	id = rec.begin(trace, "submit", root)
	var reply submitReply
	err = postJSON(base+"/v1/jobs", map[string]string{"X-Client-ID": clientID}, body, http.StatusAccepted, &reply)
	rec.end(id)
	if err != nil {
		return out, err
	}
	out.submit = time.Since(start)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	id = rec.begin(trace, "stream.open", root)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+reply.StreamURL, nil)
	if err != nil {
		rec.end(id)
		return out, err
	}
	resp, err := httpClient.Do(req)
	rec.end(id)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("stream %s: status %d", reply.ID, resp.StatusCode)
	}
	dec := json.NewDecoder(bufio.NewReader(resp.Body))
	for {
		id = rec.begin(trace, "stream.wait", root)
		var ev streamEvent
		err := dec.Decode(&ev)
		rec.end(id)
		if err != nil {
			return out, fmt.Errorf("stream %s: %w", reply.ID, err)
		}
		switch ev.Type {
		case "cell":
			if ev.Index == nil || *ev.Index < 0 || *ev.Index >= n {
				return out, fmt.Errorf("stream %s: cell event without a valid index", reply.ID)
			}
			if ev.Error != "" || ev.Result == nil {
				return out, fmt.Errorf("stream %s: cell %d failed: %s", reply.ID, *ev.Index, ev.Error)
			}
			out.results[*ev.Index], out.keys[*ev.Index], out.got[*ev.Index] = *ev.Result, ev.Key, true
		case "end":
			out.latency = time.Since(start)
			if ev.State != "done" {
				return out, fmt.Errorf("stream %s: ended %q", reply.ID, ev.State)
			}
			for i, ok := range out.got {
				if !ok {
					return out, fmt.Errorf("stream %s: ended without cell %d", reply.ID, i)
				}
			}
			return out, nil
		}
	}
}

// service is one service workload's run state.
type service struct {
	a    workerArgs
	z    sizing
	rep  *workerReport
	c    *child
	hot  bool
	jobs int // jobs per client per repetition

	// primed holds the hot workload's distinct jobs and the results they
	// got when first (coldly) submitted.
	primedJobs    [clients][]job
	primedResults [clients][]jobResult

	// coldJobs and coldResults keep what the timed cold repetitions sent
	// and received, for the check against the library after the clock
	// has stopped.
	mu          sync.Mutex
	coldJobs    []job
	coldResults []jobResult
	coldRerun   []bool
}

// rerunEvery thins the field-for-field check of cold replies: rerunning
// all 5 400 cells of a run in-process costs ~10 s, more than the run's
// time cap leaves. One job in rerunEvery is rerun, a different one in
// each repetition; every cell's key is checked.
const rerunEvery = 6

// repetition runs one closed-loop repetition and returns its wall time.
// Failures are counted on s.rep; keep says whether cold results are
// kept for verification (the timed and traced repetitions, not the
// warm-up or a layer loop).
func (s *service) repetition(round int, rec *recorder, keep bool) time.Duration {
	trace := "rep-" + strconv.Itoa(round)
	root := rec.begin(trace, "repetition", 0)
	defer rec.end(root)
	perJob := len(s.z.designs)
	start := time.Now()
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			clientID := "bench-client-" + strconv.Itoa(cl)
			for i := 0; i < s.jobs; i++ {
				var j job
				if s.hot {
					j = s.primedJobs[cl][i%len(s.primedJobs[cl])]
				} else {
					j = s.z.makeJob(s.a.Seed, round, cl, i)
				}
				jtrace := trace + "/c" + strconv.Itoa(cl) + "/j" + strconv.Itoa(i)
				res, err := runJob(s.c.base, clientID, j, rec, jtrace, root)
				switch {
				case err != nil:
					s.mu.Lock()
					s.rep.fail((s.jobs-i)*perJob, "round %d client %d job %d: %v", round, cl, i, err)
					s.mu.Unlock()
					return // the rest of this client's jobs count as failed
				case s.hot:
					want := s.primedResults[cl][i%len(s.primedJobs[cl])]
					for k := range res.results {
						if res.results[k] != want.results[k] || res.keys[k] != want.keys[k] {
							s.mu.Lock()
							s.rep.fail(1, "round %d client %d job %d cell %d: replay differs from the primed result", round, cl, i, k)
							s.mu.Unlock()
						}
					}
				case keep:
					s.mu.Lock()
					s.coldJobs = append(s.coldJobs, j)
					s.coldResults = append(s.coldResults, res)
					s.coldRerun = append(s.coldRerun, i%rerunEvery == round%rerunEvery)
					s.mu.Unlock()
				}
			}
		}(cl)
	}
	wg.Wait()
	return time.Since(start)
}

// prime submits the hot workload's distinct jobs once, cold, and keeps
// their results: every later replay must equal them.
func (s *service) prime() error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for cl := 0; cl < clients; cl++ {
		s.primedJobs[cl] = make([]job, s.z.hotDistinctJobs)
		s.primedResults[cl] = make([]jobResult, s.z.hotDistinctJobs)
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := range s.primedJobs[cl] {
				j := s.z.makeJob(s.a.Seed, roundPrime, cl, i)
				res, err := runJob(s.c.base, "bench-client-"+strconv.Itoa(cl), j, nil, "", 0)
				if err != nil {
					errs[cl] = fmt.Errorf("priming client %d job %d: %w", cl, i, err)
					return
				}
				s.primedJobs[cl][i], s.primedResults[cl][i] = j, res
			}
		}(cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	s.rep.TotalCells += clients * s.z.hotDistinctJobs * len(s.z.designs)
	return nil
}

func (s *service) stats() (serviceStats, error) {
	var st serviceStats
	err := getJSON(s.c.base+"/v1/stats", &st)
	return st, err
}

// checkStats compares the child's own counters over a set of
// repetitions with what the workload must cause: cold simulates every
// cell and hits nothing, hot simulates nothing and hits every cell.
func (s *service) checkStats(what string, d map[string]int64, reps int) {
	jobs := int64(reps * clients * s.jobs)
	cells := jobs * int64(len(s.z.designs))
	wantSim, wantHits := cells, int64(0)
	if s.hot {
		wantSim, wantHits = 0, cells
	}
	if d["simulated"] != wantSim || d["store_hits"] != wantHits || d["store_misses"] != wantSim ||
		d["jobs_admitted"] != jobs || d["jobs_rejected"] != 0 || d["queue_depth_at_end"] != 0 {
		s.rep.fail(int(cells), "%s: /v1/stats deltas %v, want simulated=%d store_hits=%d store_misses=%d jobs_admitted=%d jobs_rejected=0 queue 0",
			what, d, wantSim, wantHits, wantSim, jobs)
	}
}

// verifyAgainstLibrary checks kept job replies after the child has been
// stopped: every cell's key against Config.Key, and — for the jobs rerun
// marks (all of them when rerun is nil) — every result, field for
// field, against the same Configs run in this process.
func verifyAgainstLibrary(jobs []job, results []jobResult, rerun []bool, rep *workerReport) {
	for i, j := range jobs {
		var want []shift.RunResult
		if rerun == nil || rerun[i] {
			var err error
			if want, err = shift.RunBatch(j.configs); err != nil {
				rep.fail(len(j.configs), "library run of job %d: %v", i, err)
				continue
			}
		}
		for k, cfg := range j.configs {
			if results[i].keys[k] != cfg.Key() || (want != nil && results[i].results[k] != want[k]) {
				rep.fail(1, "job %d cell %d (%s/%s seed %d): service key or result differs from the library's",
					i, k, cfg.Workload, cfg.Design, cfg.Seed)
			}
		}
	}
}

// shiftdArgs is how every end-to-end service workload starts its child:
// one engine slot and two job workers for the two clients, admission
// lifted, in-memory store, no state directory.
var shiftdArgs = []string{"-parallel", "1", "-job-workers", "2", "-job-rate", "1e9", "-job-burst", "1e9"}

func runService(a workerArgs, z sizing, rep *workerReport) error {
	s := &service{a: a, z: z, rep: rep, hot: a.Workload == wServiceHot, jobs: z.coldJobsPerClient}
	if s.hot {
		s.jobs = z.hotJobsPerClient
	}
	perRep := z.cellsPerRep(a.Workload)

	c, err := startShiftd(a.Shiftd, shiftdArgs...)
	if err != nil {
		return err
	}
	s.c = c
	defer c.stop()

	// Set-up: child boot (above), priming for the hot workload, and one
	// untimed warm-up repetition.
	if s.hot {
		if err := s.prime(); err != nil {
			return err
		}
	}
	setupFailed := rep.Failed
	s.repetition(roundWarmup, nil, false)
	rep.TotalCells += perRep
	if rep.Failed != setupFailed {
		return fmt.Errorf("warm-up repetition failed: %v; child said: %s", rep.Notes, c.stderr)
	}
	rep.SetupS = sinceStart(a)

	// run does n repetitions starting at round `from`, checks the
	// child's counters over them and returns the repetition times.
	run := func(what string, from, n int, rec *recorder) ([]float64, map[string]int64) {
		before, err := s.stats()
		if err != nil {
			rep.fail(n*perRep, "%s: reading /v1/stats: %v", what, err)
		}
		var times []float64
		for k := 0; k < n; k++ {
			rep.Attempted += perRep
			rep.TotalCells += perRep
			if !c.alive() {
				rep.fail(perRep, "%s repetition %d: %v: %s", what, k, errChildGone, c.stderr)
				continue
			}
			if rec == nil {
				rep.CanaryMs = append(rep.CanaryMs, canaryMs())
			}
			times = append(times, s.repetition(from+k, rec, true).Seconds())
		}
		after, err := s.stats()
		if err != nil {
			rep.fail(n*perRep, "%s: reading /v1/stats: %v", what, err)
			return times, nil
		}
		d := after.minus(before)
		s.checkStats(what, d, n)
		return times, d
	}

	rep.RepS, _ = run("timed", roundTimed, a.Reps, nil)
	rep.CanaryMs = append(rep.CanaryMs, canaryMs())
	if a.Phase == phaseTrace {
		rec := newRecorder()
		var counters map[string]int64
		rep.TracedRepS, counters = run("traced", roundTimed+a.Reps, z.traceReps, rec)
		if err := rec.write(filepath.Join(a.OutDir, traceName(a.Workload)), a.Workload, a.Seed, counters); err != nil {
			return err
		}
	}

	// The child is the program under test: its peak memory and CPU time
	// are read from the kernel's accounting once it has ended.
	rep.ChildMaxRSSKB, rep.ChildCPUS = c.stop()

	if s.hot {
		for cl := 0; cl < clients; cl++ {
			verifyAgainstLibrary(s.primedJobs[cl], s.primedResults[cl], nil, rep)
		}
	} else {
		verifyAgainstLibrary(s.coldJobs, s.coldResults, s.coldRerun, rep)
	}
	return nil
}
