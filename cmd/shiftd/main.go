// Command shiftd serves the SHIFT experiment engine over HTTP: a
// long-running process that owns one shared engine and one result
// store, so every client — and every repeated figure sweep — amortizes
// simulations that any earlier request already paid for.
//
// Usage:
//
//	shiftd                                  # in-memory store on :8080
//	shiftd -addr :9000 -cache-dir ~/.shiftcache   # results survive restarts
//	shiftd -state-dir /var/lib/shiftd       # accepted jobs survive restarts too
//	shiftd -quick -parallel 8               # reduced default scale, 8 workers
//	shiftd -job-rate 4 -job-burst 256       # looser admission for trusted clients
//	shiftd -worker -addr :8081              # cluster worker: serves batches + blobs
//	shiftd -peers http://w1:8081,http://w2:8082   # coordinator: shard sweeps across workers
//	shiftd -debug-addr 127.0.0.1:6060       # profiles on a listener of their own
//
// Endpoints (all under /v1; see the README for request/response
// samples):
//
//	POST   /v1/run              run one cell and wait for it (JSON config in, result out)
//	POST   /v1/grid             run a list of cells and wait; results come back in cell order
//	POST   /v1/jobs             submit a cell list asynchronously (202 + job id)
//	GET    /v1/jobs/{id}        job status with partial results as cells land
//	GET    /v1/jobs/{id}/stream NDJSON: one event per completed cell, periodic
//	                            "heartbeat" events while idle, then "end"
//	DELETE /v1/jobs/{id}        cancel: queued cells dropped, running cells finish
//	GET    /v1/figures/{n}      render an experiment by name ("7", "fig7", "tableI", ...)
//	GET    /v1/healthz          liveness probe
//	GET    /v1/readyz           readiness probe: 503 + reasons while degraded
//	GET    /v1/stats            engine, store, queue, and admission counters (JSON)
//	GET    /v1/metrics          the same counters in Prometheus text format
//	POST   /v1/batch            execute a batch of cells (-worker; cluster-internal)
//	GET    /v1/blobs/{key}      raw result blobs, CRC footers intact (also PUT)
//	GET    /v1/cluster          coordinator membership, health, and routing counters
//	POST   /v1/cluster/join     worker announcing itself to the coordinator
//
// Cluster roles: a -worker process serves whole stream-key batches on
// its engine and exports its raw blob tier; a coordinator (-peers, or
// -coordinator with join-only membership) shards every sweep across the
// workers by stream-key affinity (rendezvous hashing), probes their
// health (-cluster-heartbeat), re-routes batches off failed workers
// under internal/retry's jittered backoff (-batch-retries), hedges
// stragglers (-hedge-after), and degrades to in-process execution when
// no worker is routable — results stay byte-identical to a single
// host throughout. Point every node's -store-url at one shared blob
// store (any peer's /v1/blobs) and the cluster converges on one
// content-addressed result tier: a restarted worker re-serves the
// whole grid from the store without re-simulating a cell.
//
// Concurrent identical requests share one simulation (the engine's
// in-flight deduplication), and every completed cell lands in the store,
// so a figure requested twice — or a cell shared by two figures — is
// simulated once. With -cache-dir that holds across restarts too.
//
// Every cell comes in one way, as a job: /v1/run and /v1/grid submit one
// exactly as /v1/jobs does and wait for it to finish. Jobs go through
// per-client token-bucket admission (-job-rate/-job-burst; one token per
// cell; rejections answer 429 with Retry-After, and cost no tokens) into
// a bounded shortest-job-first queue (-job-queue, -job-workers) that
// prefers cheap sampled cells over exact ones. The queue schedules
// batches: a job's cells that consume one record stream (the designs of
// one workload) are one queue entry, occupy one worker and generate
// their stream once, while the bound, the tokens and every outcome stay
// per cell. A drained job's results are therefore what /v1/grid answers
// for the same cells, byte for byte.
//
// The service degrades instead of failing: disk-store corruption is
// quarantined and self-heals on the next store, IO failures retry with
// backoff behind a circuit breaker that falls back to memory-only
// operation, simulation panics cost one cell rather than the process,
// -cell-timeout arms a watchdog that frees worker slots wedged by a
// stuck cell, and -job-retries re-enqueues job cells that failed
// transiently. /v1/readyz reports every active degradation.
//
// With -state-dir, accepted jobs are durable: every submission,
// per-cell completion, and cancellation is appended to a CRC-framed
// write-ahead journal before it is acknowledged. On restart the journal
// is replayed — completed cells resolve through the result store
// without re-simulation, unfinished cells re-enter the queue and re-run
// to byte-identical results, and a torn final record (a crash mid-write)
// is discarded and counted, while interior corruption refuses to start.
// /v1/stats and /v1/metrics expose journal and recovery counters.
//
// Shutdown is graceful: on SIGINT/SIGTERM new submissions — and
// /v1/run and /v1/grid calls whose jobs are not finished — get a clean
// 503 + Retry-After while running cells finish and journal within
// -grace; the queue is checkpointed (with -state-dir it re-admits on the
// next boot), then the listener closes and remaining in-flight requests
// get the rest of -grace to finish. A request abandoned by its client
// stops waiting immediately, but its job runs to completion and seeds
// the store — retries hit instead of recomputing.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"shift"
	"shift/internal/cluster"
	"shift/internal/jobs"
	"shift/internal/retry"
	"shift/internal/store"
	"shift/internal/wal"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		cacheDir   = flag.String("cache-dir", "", "persist results under this directory (tiered memory-over-disk store); empty = in-memory only")
		stateDir   = flag.String("state-dir", "", "persist service state (job journal, cluster membership) under this directory; accepted jobs then survive restarts and crashes")
		parallel   = flag.Int("parallel", 0, "engine worker-pool size (0 = GOMAXPROCS)")
		quick      = flag.Bool("quick", false, "reduced default experiment scale: 25k+25k records per core instead of 60k+60k (per-request overrides still apply)")
		grace      = flag.Duration("grace", 30*time.Second, "graceful-shutdown budget for in-flight requests")
		jobRate    = flag.Float64("job-rate", 1, "admission refill rate per client, tokens/second (one cell costs one token)")
		jobBurst   = flag.Float64("job-burst", 64, "admission bucket capacity per client; jobs with more cells are never admitted")
		jobQueue   = flag.Int("job-queue", 1024, "bound on queued (not yet running) job cells across all jobs")
		jobWorkers = flag.Int("job-workers", 0, "job scheduler goroutines (0 = GOMAXPROCS); the engine still bounds simulations")
		jobRetries = flag.Int("job-retries", 2, "extra attempts for job cells that fail transiently (watchdog timeouts); 0 disables")
		cellTmo    = flag.Duration("cell-timeout", 0, "per-cell watchdog: fail cells running longer than this with a timeout error (0 = off)")
		maxBody    = flag.Int64("max-body", 1<<20, "request-body size limit in bytes (413 beyond it)")
		streamBeat = flag.Duration("stream-heartbeat", 15*time.Second, "idle-stream heartbeat period for /v1/jobs/{id}/stream")

		worker      = flag.Bool("worker", false, "serve POST /v1/batch: execute batches for a cluster coordinator")
		coordinator = flag.Bool("coordinator", false, "shard sweeps across cluster workers (implied by -peers; workers may also POST /v1/cluster/join)")
		peers       = flag.String("peers", "", "comma-separated worker base URLs to coordinate across")
		clusterBeat = flag.Duration("cluster-heartbeat", 2*time.Second, "worker health-probe period (0 = no background probing)")
		batchTmo    = flag.Duration("batch-timeout", 2*time.Minute, "per-batch dispatch timeout")
		batchRetry  = flag.Int("batch-retries", 0, "re-route attempts per batch after a worker failure (0 = every remaining worker, negative = none)")
		hedgeAfter  = flag.Duration("hedge-after", 0, "speculatively duplicate a batch to its backup worker after this delay (0 = off)")
		storeURL    = flag.String("store-url", "", "shared remote blob store base URL (a peer's /v1/blobs); mutually exclusive with -cache-dir")
		joinURL     = flag.String("join", "", "coordinator base URL to announce this worker to at startup")
		advertise   = flag.String("advertise", "", "base URL peers reach this process at (with -join; default http://localhost<addr>)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof profiles and runtime/trace execution traces under /debug/pprof/ on this separate listen address (empty = off, nothing listens)")
	)
	flag.Parse()

	base := shift.DefaultOptions()
	if *quick {
		base = shift.QuickOptions()
	}
	if *cacheDir != "" && *storeURL != "" {
		log.Fatal("shiftd: -cache-dir and -store-url are mutually exclusive")
	}
	var (
		rs       shift.ResultStore
		results  = shift.NewResultCache()
		tiered   *shift.BlobStore
		storeDsc = "in-memory"
	)
	switch {
	case *cacheDir != "":
		t, err := shift.NewTieredStore(*cacheDir)
		if err != nil {
			log.Fatalf("shiftd: %v", err)
		}
		tiered = t
		storeDsc = fmt.Sprintf("tiered memory-over-disk at %s (%d cells)", *cacheDir, t.Len())
	case *storeURL != "":
		tiered = shift.NewTieredRemoteStore(*storeURL, nil)
		storeDsc = fmt.Sprintf("tiered memory-over-remote at %s", *storeURL)
	case *worker:
		// A worker without persistent storage still keeps a raw footered
		// blob tier, so it has bytes to serve to cluster peers.
		tiered = shift.NewTieredStoreOver(store.NewMem())
		storeDsc = "tiered memory-over-memory (blob tier exported)"
	}
	// The job registry shares the store's in-memory result table, so a
	// finished cell the engine stored is held once.
	rs = results
	if tiered != nil {
		rs, results = tiered, tiered.Memory()
	}
	engine := shift.NewEngine(*parallel, rs)
	engine.SetCellTimeout(*cellTmo)
	jcfg := jobs.Config{
		Workers:  *jobWorkers,
		MaxQueue: *jobQueue,
		Rate:     *jobRate,
		Burst:    *jobBurst,
		RunBatch: engine.RunKeyed,
		Retries:  *jobRetries,
		Results:  results,
	}
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			log.Fatalf("shiftd: %v", err)
		}
		journal, err := jobs.OpenWAL(filepath.Join(*stateDir, "jobs.wal"))
		if err != nil {
			// A corrupt journal interior fails loudly (wal.ErrCorrupt):
			// replaying past it could silently drop accepted jobs. The
			// operator keeps the evidence and decides; a torn tail — the
			// one record in flight when the last process died — is
			// discarded automatically and never reaches this path.
			log.Fatalf("shiftd: %v", err)
		}
		jcfg.Journal = journal
		jcfg.Lookup = rs.Lookup
	}
	jm, err := jobs.Open(jcfg)
	if err != nil {
		log.Fatalf("shiftd: %v", err)
	}
	defer jm.Close()
	if rec := jm.Recovery(); *stateDir != "" {
		log.Printf("shiftd: journal replayed: %d jobs re-admitted, %d already terminal, %d cells restored from the store, %d cells re-queued",
			rec.JobsRecovered, rec.JobsTerminal, rec.CellsRestored, rec.CellsRequeued)
		if rec.TailRecords > 0 {
			log.Printf("shiftd: journal: discarded torn tail (%d record, %d bytes) from the previous crash", rec.TailRecords, rec.TailBytes)
		}
	}
	srv := newServer(engine, rs, base, jm, *maxBody)
	srv.streamHeartbeat = *streamBeat
	srv.drainRetryAfter = int((*grace + time.Second - 1) / time.Second)
	if bt := tiered.BlobTier(); bt != nil {
		srv.blobs = store.NewBlobHandler(bt)
	}
	if *worker {
		srv.worker = cluster.NewWorker(engine)
	}
	if *peers != "" || *coordinator {
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		coord := cluster.New(cluster.Config{
			Peers:          peerList,
			HeartbeatEvery: *clusterBeat,
			BatchTimeout:   *batchTmo,
			Retries:        *batchRetry,
			HedgeAfter:     *hedgeAfter,
		})
		defer coord.Close()
		engine.SetExecutor(coord)
		srv.cluster = coord
		if *stateDir != "" {
			persist, members, err := openMembership(filepath.Join(*stateDir, "cluster.wal"))
			if err != nil {
				log.Fatalf("shiftd: %v", err)
			}
			for _, m := range members {
				coord.Join(m)
			}
			if len(members) > 0 {
				log.Printf("shiftd: restored %d cluster members from %s", len(members), *stateDir)
			}
			srv.persistJoin = persist
		}
		log.Printf("shiftd coordinating %d workers", len(peerList))
	}
	if *joinURL != "" {
		go announceJoin(*joinURL, *advertise, *addr)
	}
	if *debugAddr != "" {
		dbg, bound, err := serveDebug(*debugAddr)
		if err != nil {
			log.Fatalf("shiftd: -debug-addr: %v", err)
		}
		defer dbg.Close()
		log.Printf("shiftd: profiles on http://%s/debug/pprof/", bound)
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("shiftd listening on %s (store: %s)", *addr, storeDsc)

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("shiftd: %v", err)
		}
	case <-ctx.Done():
		stop() // a second signal kills immediately
		log.Printf("shiftd: shutting down, draining jobs and in-flight requests for up to %s", *grace)
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		// Drain the job scheduler first, with the listener still open:
		// new submissions get a clean 503 + Retry-After instead of a
		// connection reset, status and stream endpoints keep serving
		// while running cells finish and journal, and a complete drain
		// checkpoints the queue. Only then does the listener close on
		// whatever grace budget remains.
		if err := jm.Drain(sctx); err != nil {
			log.Printf("shiftd: drain interrupted: %v (unfinished cells recover on the next start)", err)
		}
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("shiftd: shutdown: %v", err)
		}
	}
}

// openMembership opens (creating if absent) the persistent cluster
// membership log: one record per first-time worker join, replayed at
// boot so POST /v1/cluster/join survives a coordinator restart. The
// returned persist function durably appends one address; replayed
// addresses are compacted down to the deduplicated membership on open.
func openMembership(path string) (persist func(addr string), members []string, err error) {
	l, recs, _, err := wal.Open(path)
	if err != nil {
		return nil, nil, err
	}
	seen := make(map[string]bool, len(recs))
	for _, rec := range recs {
		addr := string(rec)
		if !seen[addr] {
			seen[addr] = true
			members = append(members, addr)
		}
	}
	if len(members) < len(recs) {
		compact := make([][]byte, len(members))
		for i, m := range members {
			compact[i] = []byte(m)
		}
		if err := l.Rewrite(compact); err != nil {
			return nil, nil, err
		}
	}
	return func(addr string) {
		if err := l.Append([]byte(addr)); err != nil {
			log.Printf("shiftd: persisting cluster join %s: %v", addr, err)
		}
	}, members, nil
}

// announceJoin posts this worker's reachable base URL to the
// coordinator's join endpoint, retrying any failure briefly (5 tries,
// waits drawn from (0,1], (0,2], (0,4] and (0,8] seconds) so a worker
// started a moment before its coordinator still registers. Failures are
// logged, not fatal: a coordinator can also list the worker in -peers.
func announceJoin(joinURL, advertise, addr string) {
	if advertise == "" {
		// Best-effort default for single-host clusters; multi-host
		// deployments must pass -advertise.
		if strings.HasPrefix(addr, ":") {
			advertise = "http://localhost" + addr
		} else {
			advertise = "http://" + addr
		}
	}
	body, _ := json.Marshal(map[string]string{"addr": advertise})
	target := strings.TrimRight(joinURL, "/") + "/v1/cluster/join"
	client := &http.Client{Timeout: 5 * time.Second}
	err := retry.Policy{Base: time.Second}.Do(5, func(int) error {
		resp, err := client.Post(target, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %s", resp.Status)
		}
		return nil
	}, func(error) bool { return true })
	if err != nil {
		log.Printf("shiftd: joining cluster at %s failed: %v", joinURL, err)
		return
	}
	log.Printf("shiftd: joined cluster at %s as %s", joinURL, advertise)
}
