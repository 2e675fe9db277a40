package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"shift"
)

// The service layer rows drive shiftd children in the configurations no
// end-to-end workload covers on a two-processor host: the synchronous
// endpoints, a journaled child, a disk-backed child, and a coordinator
// with two workers. They reuse the end-to-end closed loop at a smaller
// size, one child (or cluster) at a time.

// Rounds of the layer loops, apart from the end-to-end rounds, so that
// every loop against one child sends cells it has not seen.
const (
	roundLayerCold = 100 + iota
	roundLayerHot
	roundLayerLatency
)

// loop runs one closed-loop repetition against c and returns cells per
// second. A hot loop primes first and replays; a cold loop sends unseen
// cells. Any failed cell is an error: a layer row is either measured or
// absent.
func (l *layerRun) loop(c *child, z sizing, hot bool, jobsPerClient, round int) (float64, error) {
	rep := &workerReport{}
	s := &service{a: workerArgs{Seed: l.seed}, z: z, rep: rep, c: c, hot: hot, jobs: jobsPerClient}
	if hot {
		if err := s.prime(); err != nil {
			return 0, err
		}
	}
	before, err := s.stats()
	if err != nil {
		return 0, err
	}
	d := s.repetition(round, nil, false)
	after, err := s.stats()
	if err != nil {
		return 0, err
	}
	s.checkStats("layer loop", after.minus(before), 1)
	if rep.Failed > 0 {
		return 0, fmt.Errorf("service layer loop: %d failed cells: %v; child said: %s", rep.Failed, rep.Notes, c.stderr)
	}
	return float64(clients*jobsPerClient*len(z.designs)) / d.Seconds(), nil
}

func (l *layerRun) serviceLayers() error {
	z := fullSizing()
	coldJobs, hotJobs, latencyJobs := 20, 150, 1100
	z.hotDistinctJobs = 8
	if l.quick {
		z = smokeSizing()
		coldJobs, hotJobs, latencyJobs = 2, 4, 12
	}

	plain, err := startShiftd(l.shiftd, shiftdArgs...)
	if err != nil {
		return err
	}
	defer plain.stop()

	// Synchronous endpoints, hot: one cell through /v1/run, one twelve-
	// cell grid through /v1/grid.
	one := z.makeJob(l.seed, roundLayerLatency, 0, 1<<19)
	two := z.makeJob(l.seed, roundLayerLatency, 1, 1<<19)
	runBody, _ := json.Marshal(one.cells[0])
	gridCells := append(append([]wireCell(nil), one.cells...), two.cells...)
	gridBody, _ := json.Marshal(jobRequest{Cells: gridCells})
	l.set("shiftd.run_hot_us", l.perCall(func(int) {
		if e := postJSON(plain.base+"/v1/run", nil, runBody, http.StatusOK, nil); e != nil {
			err = e
		}
	})*1e6)
	l.set("shiftd.grid_hot_us_per_cell", l.perCall(func(int) {
		if e := postJSON(plain.base+"/v1/grid", nil, gridBody, http.StatusOK, nil); e != nil {
			err = e
		}
	})/float64(len(gridCells))*1e6)
	if err != nil {
		return err
	}

	// Submit-to-202 and submit-to-"end" latency of a hot job, one client.
	var submit, latency []float64
	for i := 0; i < latencyJobs; i++ {
		res, e := runJob(plain.base, "bench-latency", one, nil, "", 0)
		if e != nil {
			return e
		}
		submit = append(submit, res.submit.Seconds()*1e3)
		latency = append(latency, res.latency.Seconds()*1e3)
	}
	l.set("shiftd.job_submit_ms", median(submit))
	l.set("shiftd.job_latency_p50_ms", median(latency))
	l.set("shiftd.job_latency_p99_ms", percentile(latency, 0.99))
	l.set("shiftd.job_latency_samples", float64(len(latency)))

	// Cold cells through the service against the same cells through the
	// library's engine in this process: the service's overhead ratio.
	plainCold, err := l.loop(plain, z, false, coldJobs, roundLayerCold)
	if err != nil {
		return err
	}
	// The library side runs one RunAll per job on one engine and store:
	// a single RunAll over all of them would put every cell of a
	// workload (they differ only in seed) into one 120-member batch.
	e := shift.NewEngine(1, shift.NewResultCache())
	start := time.Now()
	for cl := 0; cl < clients; cl++ {
		for i := 0; i < coldJobs; i++ {
			var cells []shift.Cell
			for _, cfg := range z.makeJob(l.seed, roundLayerCold, cl, i).configs {
				cells = append(cells, shift.Cell{Label: cfg.Design.String(), Config: cfg})
			}
			if _, err := e.RunAll(cells); err != nil {
				return err
			}
		}
	}
	libraryCold := float64(clients*coldJobs*len(z.designs)) / time.Since(start).Seconds()
	l.set("shiftd.overhead_ratio_cold", libraryCold/plainCold)

	plainHot, err := l.loop(plain, z, true, hotJobs, roundLayerHot)
	if err != nil {
		return err
	}
	plain.stop()

	// A journaled child (-state-dir): every submission and completion is
	// appended and synced before it is acknowledged.
	stateDir, err := l.mkTmp("state")
	if err != nil {
		return err
	}
	durable, err := startShiftd(l.shiftd, append([]string{"-state-dir", stateDir}, shiftdArgs...)...)
	if err != nil {
		return err
	}
	defer durable.stop()
	durableHot, err := l.loop(durable, z, true, hotJobs, roundLayerHot)
	if err != nil {
		return err
	}
	durable.stop()
	l.set("shiftd.durable_hot_cells_per_s", durableHot)
	l.set("shiftd.durable_overhead_ratio", plainHot/durableHot)

	// A disk-backed child (-cache-dir): every cold cell is also written
	// to the tiered store's disk tier.
	cacheDir, err := l.mkTmp("cache")
	if err != nil {
		return err
	}
	disk, err := startShiftd(l.shiftd, append([]string{"-cache-dir", cacheDir}, shiftdArgs...)...)
	if err != nil {
		return err
	}
	defer disk.stop()
	diskCold, err := l.loop(disk, z, false, coldJobs, roundLayerCold)
	if err != nil {
		return err
	}
	disk.stop()
	l.set("shiftd.disk_cold_cells_per_s", diskCold)

	// A coordinator with two workers on loopback.
	var peers []string
	for i := 0; i < 2; i++ {
		w, err := startShiftd(l.shiftd, "-worker", "-parallel", "1")
		if err != nil {
			return err
		}
		defer w.stop()
		peers = append(peers, w.base)
	}
	coord, err := startShiftd(l.shiftd, append([]string{"-peers", strings.Join(peers, ",")}, shiftdArgs...)...)
	if err != nil {
		return err
	}
	defer coord.stop()
	clusterCold, err := l.loop(coord, z, false, coldJobs, roundLayerCold)
	if err != nil {
		return err
	}
	l.set("cluster.cold_cells_per_s", clusterCold)
	l.set("cluster.overhead_ratio", plainCold/clusterCold)
	return nil
}
