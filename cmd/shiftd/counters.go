package main

import (
	"fmt"
	"reflect"
	"runtime/metrics"
	"strings"
	"time"

	"shift"
	"shift/internal/cluster"
	"shift/internal/freelist"
	"shift/internal/jobs"
	"shift/internal/store"
)

// snapshot is one reading of every owner's counters, in the structs the
// owners already export. The four operational views are renderings of
// it: /v1/stats, /v1/metrics and the counter half of /v1/cluster walk
// the rows table below, /v1/readyz applies degradedReasons.
type snapshot struct {
	uptime   float64 // seconds since process start
	requests int64
	engine   shift.EngineStats
	jobs     jobs.Stats
	journal  jobs.JournalStats
	recovery jobs.RecoveryStats
	health   shift.StoreHealth
	cluster  cluster.Stats
	workers  []cluster.MemberStatus
	gc       gcStats
	tables   []freelist.Count // the simulator's free lists, by table kind
	blocks   block            // the optional blocks this process has
}

// gcStats is what the Go runtime reports of the collector's work: the
// cycles so far, the heap the last one marked live, and the part of the
// heap a cycle scans — the job registry's pointers among it.
type gcStats struct {
	cycles, liveBytes, scanBytes int64
}

// gcMetrics are the runtime/metrics names gcStats reads, in its order.
var gcMetrics = []string{"/gc/cycles/total:gc-cycles", "/gc/heap/live:bytes", "/gc/scan/heap:bytes"}

// readGC reads gcStats from runtime/metrics.
func readGC() gcStats {
	samples := make([]metrics.Sample, len(gcMetrics))
	for i, name := range gcMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	return gcStats{
		cycles:    int64(samples[0].Value.Uint64()),
		liveBytes: int64(samples[1].Value.Uint64()),
		scanBytes: int64(samples[2].Value.Uint64()),
	}
}

// block names a group of rows only some configurations have. A row of
// an absent block is left out of /v1/metrics and, when nested in the
// block's object, of /v1/stats; a top-level /v1/stats key stays at zero.
type block uint8

const (
	journalBlock block = 1 << iota // -state-dir: the journal and recovery objects
	healthBlock                    // the store reports failure handling (any persistent tier)
	remoteBlock                    // the persistent tier is a remote peer (-store-url)
	clusterBlock                   // this process coordinates workers
)

func (sn *snapshot) has(b block) bool { return sn.blocks&b == b }

// readiness reads what the /v1/readyz rules need and nothing else: no
// call here reaches a storage backend, which may be what has stalled.
func (s *server) readiness() *snapshot {
	sn := &snapshot{jobs: s.jobs.Stats()}
	sn.engine.Inflight, sn.engine.Capacity = s.engine.Load()
	if hr, ok := s.store.(shift.HealthReporter); ok {
		sn.health = hr.Health()
		sn.blocks |= healthBlock
		if sn.health.Remote {
			sn.blocks |= remoteBlock
		}
	}
	if s.cluster != nil {
		sn.workers = s.cluster.Members()
		sn.blocks |= clusterBlock
	}
	return sn
}

// snapshot reads every owner once.
func (s *server) snapshot() *snapshot {
	sn := s.readiness()
	sn.uptime = time.Since(s.started).Seconds()
	sn.requests = s.requests.Load()
	sn.engine = s.engine.Stats()
	if jst, ok := s.jobs.JournalStats(); ok {
		sn.journal, sn.recovery = jst, s.jobs.Recovery()
		sn.blocks |= journalBlock
	}
	if s.cluster != nil {
		sn.cluster = s.cluster.Stats()
	}
	sn.gc = readGC()
	sn.tables = freelist.Counts()
	return sn
}

// table returns kind's free-list count, zero when the snapshot has none.
func (sn *snapshot) table(kind string) freelist.Count {
	for _, c := range sn.tables {
		if c.Kind == kind {
			return c
		}
	}
	return freelist.Count{}
}

// The series kinds (Prometheus TYPEs), and the one family so far with
// more than one sample: job submit-to-finish latency.
const (
	counter, gauge, summary = "counter", "gauge", "summary"
	jobLatency              = "shiftd_job_latency_seconds"
)

// row is one operational fact and the only place it gets a wire name:
// path is its /v1/stats key ("block.key" nests it in that block's
// object), series its /v1/metrics family and kind the family's TYPE,
// help the HELP text and the fact's documentation, in the block it
// belongs to, and get reads it — a number, bool or string — from a
// snapshot. suffix tells the samples of one family apart (quantile
// labels, _sum, _count): its rows are adjacent, the first one's help
// heads it. omitZero drops the /v1/stats key while the value is zero. A
// string row's series reads 1 while the value is one, 0 otherwise.
type row struct {
	path, series, suffix, kind, help string
	in                               block
	omitZero                         bool
	one                              string
	get                              func(*snapshot) any
}

var rows = append([]row{
	{path: "uptime_seconds", series: "shiftd_uptime_seconds", kind: gauge, help: "Seconds since process start.", get: func(sn *snapshot) any { return sn.uptime }},
	{path: "requests", series: "shiftd_requests_total", kind: counter, help: "HTTP requests served (all endpoints).", get: func(sn *snapshot) any { return sn.requests }},

	// The job queue and admission control.
	{path: "queue_depth", series: "shiftd_jobs_queue_depth", kind: gauge, help: "Job cells waiting to run.", get: func(sn *snapshot) any { return sn.jobs.QueueDepth }},
	{path: "jobs_admitted", series: "shiftd_jobs_admitted_total", kind: counter, help: "Jobs accepted into the queue.", get: func(sn *snapshot) any { return sn.jobs.Admitted }},
	{path: "jobs_rejected", series: "shiftd_jobs_rejected_total", kind: counter, help: "Job submissions refused by admission control or the queue bound.", get: func(sn *snapshot) any { return sn.jobs.Rejected }},
	{path: "jobs_cancelled", series: "shiftd_jobs_cancelled_total", kind: counter, help: "Jobs whose cancellation took effect.", get: func(sn *snapshot) any { return sn.jobs.Cancelled }},
	{path: "job_latency_p50_seconds", series: jobLatency, suffix: `{quantile="0.5"}`, kind: summary, help: "Job submit-to-finish latency: quantiles over the most recent completed jobs (up to 1024), sum and count over all.", get: func(sn *snapshot) any { return sn.jobs.LatencyP50 }},
	{path: "job_latency_p90_seconds", series: jobLatency, suffix: `{quantile="0.9"}`, kind: summary, help: "90th percentile of the same.", get: func(sn *snapshot) any { return sn.jobs.LatencyP90 }},
	{path: "job_latency_p99_seconds", series: jobLatency, suffix: `{quantile="0.99"}`, kind: summary, help: "99th percentile of the same.", get: func(sn *snapshot) any { return sn.jobs.LatencyP99 }},
	{path: "job_latency_sum_seconds", series: jobLatency, suffix: "_sum", kind: summary, help: "Sum of the latencies of every job that reached a terminal state.", get: func(sn *snapshot) any { return sn.jobs.LatencySum }},
	{path: "job_latency_count", series: jobLatency, suffix: "_count", kind: summary, help: "Jobs that reached a terminal state.", get: func(sn *snapshot) any { return sn.jobs.LatencyCount }},

	// The engine and its result store.
	{path: "store_hits", series: "shiftd_store_hits_total", kind: counter, help: "Result-store lookup hits.", get: func(sn *snapshot) any { return sn.engine.StoreHits }},
	{path: "store_misses", series: "shiftd_store_misses_total", kind: counter, help: "Result-store lookup misses.", get: func(sn *snapshot) any { return sn.engine.StoreMisses }},
	{path: "store_cells", series: "shiftd_store_cells", kind: gauge, help: "Results currently stored.", get: func(sn *snapshot) any { return sn.engine.StoreCells }},
	{path: "simulated", series: "shiftd_cells_simulated_total", kind: counter, help: "Cells actually simulated.", get: func(sn *snapshot) any { return sn.engine.Simulated }},
	{path: "deduped", series: "shiftd_cells_deduped_total", kind: counter, help: "Cells served by a concurrent in-flight simulation.", get: func(sn *snapshot) any { return sn.engine.Deduped }},
	{path: "inflight", series: "shiftd_cells_inflight", kind: gauge, help: "Simulations running right now.", get: func(sn *snapshot) any { return sn.engine.Inflight }},
	{path: "batched", series: "shiftd_cells_batched_total", kind: counter, help: "Cells executed through the shared-stream batch path.", get: func(sn *snapshot) any { return sn.engine.Batched }},
	{path: "streams_shared", series: "shiftd_streams_shared_total", kind: counter, help: "Trace-stream generations avoided by batching (K-1 per batch of K cells).", get: func(sn *snapshot) any { return sn.engine.StreamsShared }},
	{path: "job_batches", series: "shiftd_job_batches_total", kind: counter, help: "Batches (a job's cells sharing one record stream) started by job workers.", get: func(sn *snapshot) any { return sn.jobs.Batches }},
	{path: "job_batch_cells", series: "shiftd_job_batch_cells_total", kind: counter, help: "Job cells in the batches started by job workers.", get: func(sn *snapshot) any { return sn.jobs.BatchCells }},
	{path: "sampled_cells", series: "shiftd_cells_sampled_total", kind: counter, help: "Cells simulated in sampled mode.", get: func(sn *snapshot) any { return sn.engine.SampledCells }},
	{path: "cells_panicked", series: "shiftd_cells_panicked_total", kind: counter, help: "Simulation panics recovered into per-cell errors.", get: func(sn *snapshot) any { return sn.engine.Panicked }},
	{path: "cells_timed_out", series: "shiftd_cells_timed_out_total", kind: counter, help: "Cells abandoned by the watchdog with a timeout error (-cell-timeout).", get: func(sn *snapshot) any { return sn.engine.TimedOut }},
	{path: "job_cells_retried", series: "shiftd_job_cells_retried_total", kind: counter, help: "Transiently-failed job cells re-enqueued by the retry policy (-job-retries).", get: func(sn *snapshot) any { return sn.jobs.Retried }},
	{path: "jobs_retained", series: "shiftd_jobs_retained", kind: gauge, help: "Jobs held by the job registry: queued and running jobs, and finished ones until 8192 later-finishing cells have finished.", get: func(sn *snapshot) any { return sn.jobs.Retained }},
	{path: "jobs_evicted", series: "shiftd_jobs_evicted_total", kind: counter, help: "Finished jobs that left the job registry: a /v1/run or /v1/grid job when it finished, a /v1/jobs job once 8192 later-finishing cells had finished.", get: func(sn *snapshot) any { return sn.jobs.Evicted }},
	{path: "job_cells_retained", series: "shiftd_job_cells_retained", kind: gauge, help: "Cells of the jobs held by the job registry.", get: func(sn *snapshot) any { return sn.jobs.RetainedCells }},
	{path: "job_shared_results", series: "shiftd_job_shared_results", kind: gauge, help: "Keys the registry's finished cells point at in the in-memory result table they share with the result store, one result each (job_cells_retained over this is the dedup ratio).", get: func(sn *snapshot) any { return sn.jobs.SharedResults }},

	// The Go collector's work, which the job registry's pointers add to.
	{path: "gc_cycles", series: "go_gc_cycles_total", kind: counter, help: "Garbage collection cycles completed since process start.", get: func(sn *snapshot) any { return sn.gc.cycles }},
	{path: "heap_live_bytes", series: "go_heap_live_bytes", kind: gauge, help: "Heap bytes the last garbage collection cycle marked live.", get: func(sn *snapshot) any { return sn.gc.liveBytes }},
	{path: "heap_scan_bytes", series: "go_heap_scan_bytes", kind: gauge, help: "Heap bytes a garbage collection cycle scans for pointers.", get: func(sn *snapshot) any { return sn.gc.scanBytes }},

	// Lifecycle.
	{path: "draining", series: "shiftd_draining", kind: gauge, omitZero: true, help: "1 while graceful shutdown is draining running cells, 0 otherwise.", get: func(sn *snapshot) any { return sn.jobs.Draining }},
	{path: "jobs_recovering", series: "shiftd_jobs_recovering", kind: gauge, omitZero: true, help: "Recovered jobs still working toward a terminal state.", get: func(sn *snapshot) any { return sn.jobs.Recovering }},

	// The write-ahead job journal and what its replay at startup rebuilt.
	{path: "journal.records", series: "shiftd_journal_records", kind: gauge, in: journalBlock, help: "Records currently in the write-ahead job journal.", get: func(sn *snapshot) any { return sn.journal.Records }},
	{path: "journal.bytes", series: "shiftd_journal_bytes", kind: gauge, in: journalBlock, help: "Size of the write-ahead job journal in bytes.", get: func(sn *snapshot) any { return sn.journal.Bytes }},
	{path: "journal.compactions", series: "shiftd_journal_compactions_total", kind: counter, in: journalBlock, help: "Journal snapshot rewrites since process start.", get: func(sn *snapshot) any { return sn.journal.Compactions }},
	{path: "journal.errors", series: "shiftd_journal_errors_total", kind: counter, in: journalBlock, help: "Journal writes that failed (affected cells re-run on recovery).", get: func(sn *snapshot) any { return sn.jobs.JournalErrors }},
	{path: "recovery.jobs_recovered", series: "shiftd_recovery_jobs_recovered", kind: gauge, in: journalBlock, help: "Incomplete jobs re-admitted by the journal replay at startup.", get: func(sn *snapshot) any { return sn.recovery.JobsRecovered }},
	{path: "recovery.jobs_terminal", series: "shiftd_recovery_jobs_terminal", kind: gauge, in: journalBlock, help: "Jobs replayed directly to a terminal state at startup.", get: func(sn *snapshot) any { return sn.recovery.JobsTerminal }},
	{path: "recovery.cells_restored", series: "shiftd_recovery_cells_restored", kind: gauge, in: journalBlock, help: "Journaled completed cells restored from the result store without re-simulation.", get: func(sn *snapshot) any { return sn.recovery.CellsRestored }},
	{path: "recovery.cells_requeued", series: "shiftd_recovery_cells_requeued", kind: gauge, in: journalBlock, help: "Cells re-enqueued for execution by the journal replay.", get: func(sn *snapshot) any { return sn.recovery.CellsRequeued }},
	{path: "recovery.torn_tail_records", series: "shiftd_recovery_torn_tail_records", kind: gauge, in: journalBlock, help: "Torn journal records discarded at startup (the append in flight when the previous process died).", get: func(sn *snapshot) any { return sn.recovery.TailRecords }},
	{path: "recovery.torn_tail_bytes", series: "shiftd_recovery_torn_tail_bytes", kind: gauge, in: journalBlock, help: "Size of that discarded tail in bytes.", get: func(sn *snapshot) any { return sn.recovery.TailBytes }},

	// The result store's failure handling.
	{path: "store_errors", series: "shift_store_errors_total", kind: counter, in: healthBlock, help: "Disk-store IO failures after retries.", get: func(sn *snapshot) any { return sn.health.Errors }},
	{path: "store_quarantined", series: "shiftd_store_quarantined", kind: gauge, in: healthBlock, help: "Corrupt blobs moved into the quarantine directory.", get: func(sn *snapshot) any { return sn.health.Quarantined }},
	{path: "store_breaker_state", series: "shiftd_store_breaker_open", kind: gauge, in: healthBlock, omitZero: true, one: store.BreakerOpen, help: "1 while the store circuit breaker is open, 0 otherwise (the state itself in /v1/stats: closed, open, half-open).", get: func(sn *snapshot) any { return sn.health.BreakerState }},
	{path: "store_breaker_trips", series: "shiftd_store_breaker_trips_total", kind: counter, in: healthBlock, help: "Closed-to-open store breaker transitions.", get: func(sn *snapshot) any { return sn.health.BreakerTrips }},
	{path: "store_mem_only_ops", series: "shiftd_store_mem_only_total", kind: counter, in: healthBlock, help: "Store operations served memory-only while the breaker was open.", get: func(sn *snapshot) any { return sn.health.MemOnlyOps }},
	{path: "remote_store_errors", series: "shiftd_remote_store_errors_total", kind: counter, in: remoteBlock, omitZero: true, help: "Failed operations against the remote blob store (-store-url).", get: func(sn *snapshot) any { return sn.health.RemoteErrors }},

	// The coordinator's worker health and routing.
	{path: "cluster.workers_up", series: "shiftd_cluster_workers_up", kind: gauge, in: clusterBlock, help: "Cluster workers in the up state.", get: func(sn *snapshot) any { return sn.cluster.WorkersUp }},
	{path: "cluster.workers_suspect", series: "shiftd_cluster_workers_suspect", kind: gauge, in: clusterBlock, help: "Cluster workers in the suspect state.", get: func(sn *snapshot) any { return sn.cluster.WorkersSuspect }},
	{path: "cluster.workers_down", series: "shiftd_cluster_workers_down", kind: gauge, in: clusterBlock, help: "Cluster workers in the down state.", get: func(sn *snapshot) any { return sn.cluster.WorkersDown }},
	{path: "cluster.batches_routed", series: "shiftd_cluster_batches_routed_total", kind: counter, in: clusterBlock, help: "Batches executed on a cluster worker.", get: func(sn *snapshot) any { return sn.cluster.BatchesRouted }},
	{path: "cluster.batches_rerouted", series: "shiftd_cluster_batches_rerouted_total", kind: counter, in: clusterBlock, help: "Batch attempts re-routed after a worker failure.", get: func(sn *snapshot) any { return sn.cluster.BatchesRerouted }},
	{path: "cluster.batches_hedged", series: "shiftd_cluster_batches_hedged_total", kind: counter, in: clusterBlock, help: "Speculative duplicate dispatches to stragglers' backups.", get: func(sn *snapshot) any { return sn.cluster.BatchesHedged }},
	{path: "cluster.fallback_cells", series: "shiftd_cluster_fallback_cells_total", kind: counter, in: clusterBlock, help: "Cells degraded to in-process execution.", get: func(sn *snapshot) any { return sn.cluster.CellsFallback }},
	{path: "cluster.dispatch_errors", series: "shiftd_cluster_dispatch_errors_total", kind: counter, in: clusterBlock, help: "Transport-level batch dispatch failures.", get: func(sn *snapshot) any { return sn.cluster.DispatchErrors }},
}, tableRows()...)

// tableRows are the simulator's free lists, two rows a table kind (LLC
// banks, L1-Is, prefetch buffers, history buffers, index tables,
// predictors, lead logs): the tables built on new memory, and those
// taken off a list a finished cell handed them back to.
func tableRows() []row {
	var rs []row
	for _, c := range freelist.Counts() {
		kind := c.Kind
		rs = append(rs,
			row{path: "tables_fresh." + kind, series: "shiftd_tables_" + kind + "_fresh_total", kind: counter,
				help: "Simulator tables of kind " + kind + " built on new memory: the first time a shape runs, and again after an idle trim or once recent batches stopped using its geometry.",
				get:  func(sn *snapshot) any { return sn.table(kind).Fresh }},
			row{path: "tables_reused." + kind, series: "shiftd_tables_" + kind + "_reused_total", kind: counter,
				help: "Simulator tables of kind " + kind + " taken off the free list a finished cell handed them back to.",
				get:  func(sn *snapshot) any { return sn.table(kind).Reused }})
	}
	return rs
}

// statsDoc renders the GET /v1/stats document.
func (sn *snapshot) statsDoc() map[string]any {
	doc := map[string]any{}
	for _, r := range rows {
		v := r.get(sn)
		object, key, nested := strings.Cut(r.path, ".")
		switch {
		case r.omitZero && reflect.ValueOf(v).IsZero(), nested && !sn.has(r.in):
		case !nested:
			doc[r.path] = v
		default:
			if doc[object] == nil {
				doc[object] = map[string]any{}
			}
			doc[object].(map[string]any)[key] = v
		}
	}
	return doc
}

// sample is a row's value as a Prometheus sample.
func (r row) sample(sn *snapshot) float64 {
	switch v := reflect.ValueOf(r.get(sn)); {
	case v.CanInt():
		return float64(v.Int())
	case v.CanFloat():
		return v.Float()
	case v.Kind() == reflect.Bool && v.Bool(), v.Kind() == reflect.String && v.String() == r.one:
		return 1
	}
	return 0
}

// exposition renders GET /v1/metrics: Prometheus text format 0.0.4.
func (sn *snapshot) exposition() string {
	var b strings.Builder
	family := ""
	for _, r := range rows {
		if !sn.has(r.in) {
			continue
		}
		if r.series != family {
			family = r.series
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", family, r.help, family, r.kind)
		}
		fmt.Fprintf(&b, "%s%s %g\n", r.series, r.suffix, r.sample(sn))
	}
	return b.String()
}

// readyzResponse is the GET /v1/readyz reply.
type readyzResponse struct {
	// Status is the lifecycle phase: "ready" (200), "recovering" (200:
	// journal replay re-admitted jobs that are still re-running, the
	// service is fully usable), "degraded" (503: serving but impaired),
	// or "draining" (503: graceful shutdown in progress, running cells
	// finishing, submissions refused).
	Status string `json:"status"`
	// Reasons lists each active degradation, one human-readable line
	// per condition (degraded only).
	Reasons []string `json:"reasons,omitempty"`
	// Recovering is the number of recovered jobs still working toward a
	// terminal state ("recovering" only).
	Recovering int `json:"recovering,omitempty"`
}

// degradedReasons evaluates the readiness conditions: the store's
// circuit breaker not closed (persistence is being bypassed),
// quarantined corrupt blobs on disk (operator attention needed), a
// saturated worker pool with job cells still queued (new work will
// wait), and unhealthy cluster workers: each suspect or down worker
// gets its own reason with the last observed error, and a cluster with
// no routable worker at all reports the in-process degradation
// explicitly. Pure — handleReadyz feeds it a live readiness snapshot,
// tests feed it fixtures.
func degradedReasons(sn *snapshot) []string {
	var reasons []string
	health := sn.health
	if sn.has(healthBlock) {
		switch health.BreakerState {
		case store.BreakerOpen:
			reasons = append(reasons, fmt.Sprintf(
				"store circuit breaker open (%d trips): disk persistence suspended, serving memory-only", health.BreakerTrips))
		case store.BreakerHalfOpen:
			reasons = append(reasons, fmt.Sprintf(
				"store circuit breaker half-open (%d trips): probing disk recovery", health.BreakerTrips))
		}
		if health.Quarantined > 0 {
			reasons = append(reasons, fmt.Sprintf(
				"%d corrupt result blobs quarantined: inspect the store's quarantine/ directory", health.Quarantined))
		}
	}
	if es := sn.engine; es.Capacity > 0 && es.Inflight >= es.Capacity && sn.jobs.QueueDepth > 0 {
		reasons = append(reasons, fmt.Sprintf(
			"worker pool saturated: %d/%d slots busy, %d job cells queued", es.Inflight, es.Capacity, sn.jobs.QueueDepth))
	}
	routable := 0
	for _, m := range sn.workers {
		switch m.State {
		case "up":
			routable++
		default:
			reason := fmt.Sprintf("cluster worker %s %s (%d consecutive failures)", m.Addr, m.State, m.Fails)
			if m.LastErr != "" {
				reason += ": " + m.LastErr
			}
			reasons = append(reasons, reason)
			if m.State == "suspect" {
				routable++
			}
		}
	}
	if len(sn.workers) > 0 && routable == 0 {
		reasons = append(reasons, fmt.Sprintf(
			"all %d cluster workers down: batches executing in-process", len(sn.workers)))
	}
	return reasons
}
