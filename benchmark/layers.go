package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"shift"
	"shift/internal/bpred"
	"shift/internal/cache"
	"shift/internal/jobs"
	"shift/internal/noc"
	"shift/internal/sim"
	"shift/internal/spec"
	"shift/internal/store"
	"shift/internal/trace"
	"shift/internal/wal"
	"shift/internal/workload"
)

// The layer micro-loops time fixed call counts into each layer's
// exported functions, from here, with the layers untouched. Each figure
// is the lower quartile of `batches` batches of identical work.

// layerRun carries what the loops share.
type layerRun struct {
	seed    int64
	quick   bool // smoke sizes: every code path, no useful precision
	tmp     string
	shiftd  string
	out     map[string]float64
	batches int
	// window is the warm-up and the measured length of the short exact
	// cells the simulator rows time.
	window int64
}

func (l *layerRun) set(name string, v float64) { l.out[name] = v }

// scale shrinks a count for the smoke pass.
func (l *layerRun) scale(n int) int {
	if l.quick {
		if n /= 50; n < 2 {
			n = 2
		}
	}
	return n
}

// batchTime runs fn `batches` times and returns the lower quartile of
// the batch wall times, in seconds.
func (l *layerRun) batchTime(fn func()) float64 { return batchTimeN(l.batches, fn) }

func batchTimeN(batches int, fn func()) float64 {
	times := make([]float64, batches)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = time.Since(start).Seconds()
	}
	return lowerQuartile(times)
}

// perCall sizes a batch so that it lasts about 20 ms (one untimed call
// sets the count), then returns the seconds one call takes.
func (l *layerRun) perCall(fn func(i int)) float64 {
	start := time.Now()
	fn(0)
	once := time.Since(start).Seconds()
	n := 1
	if once > 0 {
		n = int(0.02 / once)
	}
	if n < 1 {
		n = 1
	}
	if n > 200000 {
		n = 200000
	}
	n = l.scale(n)
	next := 1
	return l.batchTime(func() {
		for i := 0; i < n; i++ {
			fn(next)
			next++
		}
	}) / float64(n)
}

// layerMetrics runs every micro-loop and the service layer rows — or,
// with parallel set, the one row that needs more than one processor —
// and returns the values by metric name.
func layerMetrics(seed int64, quick, parallel bool, tmp, shiftdBin string) (map[string]float64, error) {
	l := &layerRun{seed: seed, quick: quick, tmp: tmp, shiftd: shiftdBin, out: map[string]float64{}, batches: 5, window: 4000}
	if quick {
		l.batches, l.window = 2, 500
	}
	steps := []func() error{
		l.workloadLayer, l.componentLayers, l.simLayer, l.modelAndEngine,
		l.storeLayer, l.walLayer, l.jobsLayer, l.specLayer, l.serviceLayers,
	}
	if parallel {
		steps = []func() error{l.parallelLayer}
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return l.out, err
		}
	}
	return l.out, nil
}

const layerWorkload = "OLTP Oracle"

func (l *layerRun) workloadLayer() error {
	p, err := workload.ByName(layerWorkload)
	if err != nil {
		return err
	}
	l.set("workload.graph_build_ms", l.batchTime(func() {
		for i := 0; i < 3; i++ {
			if _, err = workload.New(p); err != nil {
				return
			}
		}
	})/3*1e3)
	if err != nil {
		return err
	}
	w, err := workload.Cached(p)
	if err != nil {
		return err
	}
	const cores = 16
	perCore := l.scale(20000)
	l.set("workload.gen_ns_per_rec", l.batchTime(func() {
		for c := 0; c < cores; c++ {
			v := w.NewCoreStream(c, 1).View(0)
			for i := 0; i < perCore; i++ {
				if _, err = v.Next(); err != nil {
					return
				}
			}
		}
	})/float64(cores*perCore)*1e9)
	return err
}

// componentLayers feeds one core's real record stream to the branch
// predictor and the caches the way internal/sim does.
func (l *layerRun) componentLayers() error {
	p, err := workload.ByName(layerWorkload)
	if err != nil {
		return err
	}
	w, err := workload.Cached(p)
	if err != nil {
		return err
	}
	recs, err := trace.Collect(w.NewCoreReader(0), l.scale(200000))
	if err != nil {
		return err
	}
	n := float64(len(recs))
	cfg := sim.DefaultConfig()

	bp := bpred.MustNewHybrid(cfg.BranchPredictorEntries)
	l.set("bpred.predict_ns_per_rec", l.batchTime(func() {
		for _, r := range recs {
			bp.PredictUpdate(r.Block.Addr(), r.Kind != trace.KindSeq)
		}
	})/n*1e9)

	l1, err := cache.New(cfg.L1I)
	if err != nil {
		return err
	}
	l.set("cache.l1i_access_ns", l.batchTime(func() {
		for _, r := range recs {
			l1.LookupInsert(r.Block, false)
		}
	})/n*1e9)

	mesh, err := noc.New(cfg.Mesh)
	if err != nil {
		return err
	}
	banks := make([]*cache.Cache, cfg.Mesh.Tiles())
	for i := range banks {
		banks[i], err = cache.New(cache.Config{
			SizeBytes: cfg.LLCBankBytes, Assoc: cfg.LLCAssoc, BlockBytes: cfg.L1I.BlockBytes,
			IndexShift: uint(math.Log2(float64(len(banks)))),
		})
		if err != nil {
			return err
		}
	}
	l.set("cache.llc_access_ns", l.batchTime(func() {
		for _, r := range recs {
			banks[mesh.BankForBlock(r.Block)].LookupInsert(r.Block, false)
		}
	})/n*1e9)

	tiles := cfg.Mesh.Tiles()
	l.set("noc.account_ns", l.batchTime(func() {
		for i := range recs {
			mesh.Account(noc.DemandInstr, 2*mesh.Hops(i%tiles, (i*7+3)%tiles))
		}
	})/n*1e9)

	dst, err := cache.New(cfg.L1I)
	if err != nil {
		return err
	}
	l.set("cache.copystate_us", l.perCall(func(int) { dst.CopyStateFrom(l1) })*1e6)
	return nil
}

// layerCell is the cell the simulator rows time: 16 Lean-OoO cores of
// the layer workload over a short exact window.
func (l *layerRun) layerCell(d shift.Design) shift.Config {
	return shift.Config{
		Workload: layerWorkload, Design: d, CoreType: shift.LeanOoO, Cores: 16,
		WarmupRecords: l.window, MeasureRecords: l.window, Seed: l.seed,
	}
}

func (l *layerRun) simLayer() error {
	var err error
	run := func(c shift.Config) shift.RunResult {
		r, e := shift.Run(c)
		if e != nil {
			err = e
		}
		return r
	}

	// Detailed step, one exact cell per design.
	var sixRuns float64
	for _, d := range stepDesigns {
		c := l.layerCell(d)
		t := l.batchTime(func() { run(c) })
		l.set("sim.step_ns_per_rec."+d.String(), t/float64(int64(c.Cores)*(c.WarmupRecords+c.MeasureRecords))*1e9)
		if d != shift.DesignTIFS {
			sixRuns += t
		}
	}
	var batch []shift.Config
	for _, d := range g12Designs {
		batch = append(batch, l.layerCell(d))
	}
	oneBatch := l.batchTime(func() {
		if _, e := shift.RunBatch(batch); e != nil {
			err = e
		}
	})
	l.set("sim.batch_speedup", sixRuns/oneBatch)

	// Functional fast-forward: a sampled cell's time over the records it
	// fast-forwards (the detailed intervals are a small share).
	for _, d := range warmDesigns {
		c := l.layerCell(d)
		c.WarmupRecords, c.MeasureRecords = 2000, 100000
		c.Sampling = shift.Sampling{Period: 40, IntervalRecords: 500, WarmupFraction: 0.3}
		if l.quick {
			c.MeasureRecords, c.Sampling.Period = 20000, 5
		}
		var res shift.RunResult
		t := l.batchTime(func() { res = run(c) })
		detailed := float64(res.SampledIntervals) * float64(c.Sampling.IntervalRecords) * (1 + c.Sampling.WarmupFraction)
		l.set("sim.warm_ns_per_rec."+d.String(), t/(float64(c.Cores)*(float64(c.MeasureRecords)-detailed))*1e9)
	}

	// Per-cell fixed cost: a cell of one warm-up and one measured record
	// per core pays for everything but stepping (System construction,
	// stream set-up, result assembly); mean of 4 and 16 cores. The
	// intercept of two longer windows reads low, even negative, because
	// the cost per record grows while the modelled caches fill.
	var fixed float64
	for _, cores := range []int{4, 16} {
		c := l.layerCell(shift.DesignSHIFT)
		c.Cores, c.WarmupRecords, c.MeasureRecords = cores, 1, 1
		fixed += l.perCall(func(int) { run(c) })
	}
	l.set("sim.cell_fixed_ms", fixed/2*1e3)
	return err
}

func pct(a, b float64) float64 { return (a/b - 1) * 100 }

// modelAndEngine runs the sweep grid once, exactly, for the modelled
// design rows (which repeat exactly for a seed and must not move under
// a speed-only change), then reuses the filled store for the engine's
// all-hit path.
func (l *layerRun) modelAndEngine() error {
	z := fullSizing()
	if l.quick {
		z = smokeSizing()
		z.sweepWorkloads = clientWorkloads[:]
		z.designs = g12Designs
	}
	grid := z.grid(l.seed, false)
	rs := shift.NewResultCache()
	e := shift.NewEngine(1, rs)
	res, err := e.RunAll(grid)
	if err != nil {
		return err
	}
	by := map[string]shift.RunResult{}
	for i, c := range grid {
		by[c.Label] = res[i]
	}
	oo, ws := clientWorkloads[0], clientWorkloads[1]
	l.set("model.shift_speedup_pct.oltp_oracle", pct(by[oo+"/SHIFT"].Throughput, by[oo+"/Baseline"].Throughput))
	l.set("model.shift_speedup_pct.web_search", pct(by[ws+"/SHIFT"].Throughput, by[ws+"/Baseline"].Throughput))
	l.set("model.pif32k_speedup_pct.oltp_oracle", pct(by[oo+"/PIF_32K"].Throughput, by[oo+"/Baseline"].Throughput))
	l.set("model.shift_mpki.oltp_oracle", by[oo+"/SHIFT"].MPKI)
	shiftRun := by[oo+"/SHIFT"]
	l.set("model.shift_covered_pct.oltp_oracle",
		100*float64(shiftRun.CoveredByPrefetch)/float64(shiftRun.CoveredByPrefetch+shiftRun.Misses))

	l.set("engine.hit_us_per_cell", l.perCall(func(int) {
		if _, e2 := e.RunAll(grid); e2 != nil {
			err = e2
		}
	})/float64(len(grid))*1e6)
	key := grid[0].Config
	l.set("engine.key_us", l.perCall(func(i int) {
		key.Seed = int64(i)
		_ = key.Key()
		_ = key.StreamKey()
	})*1e6)

	// Sampled against exact at the sweep_sampled window and policy, on a
	// reduced grid (the layer workload's six designs, 4 cores) so that
	// the exact reference fits a traced run.
	var exact, sampled []shift.Config
	for _, c := range z.grid(l.seed, true) {
		if c.Config.Workload != oo {
			continue
		}
		c.Config.Cores = 4
		sampled = append(sampled, c.Config)
		c.Config.Sampling = shift.Sampling{}
		exact = append(exact, c.Config)
	}
	var exactRes, sampledRes []shift.RunResult
	start := time.Now()
	if exactRes, err = shift.RunBatch(exact); err != nil {
		return err
	}
	exactT := time.Since(start).Seconds()
	sampledT := l.batchTime(func() {
		if sampledRes, err = shift.RunBatch(sampled); err != nil {
			return
		}
	})
	if err != nil {
		return err
	}
	l.set("sim.sampled_speedup", exactT/sampledT)
	var thrErr, mpkiErr float64
	for i := range exactRes {
		thrErr = math.Max(thrErr, math.Abs(pct(sampledRes[i].Throughput, exactRes[i].Throughput)))
		if exactRes[i].MPKI > 0 {
			mpkiErr = math.Max(mpkiErr, math.Abs(pct(sampledRes[i].MPKI, exactRes[i].MPKI)))
		}
	}
	l.set("model.sampled_max_thr_err_pct", thrErr)
	l.set("model.sampled_max_mpki_err_pct", mpkiErr)
	return err
}

// parallelLayer is the one row that needs every processor the host
// has, so it runs in a worker of its own that is not confined to one:
// the sweep grid over a shorter window, no store, at engine
// parallelism 1 against parallelism nproc.
func (l *layerRun) parallelLayer() error {
	z := fullSizing()
	if l.quick {
		z = smokeSizing()
	}
	short := z.grid(l.seed, false)
	for i := range short {
		short[i].Config.WarmupRecords, short[i].Config.MeasureRecords = l.window, l.window
	}
	var err error
	runAt := func(p int) float64 {
		return batchTimeN(3, func() {
			if _, e := shift.NewEngine(p, nil).RunAll(short); e != nil {
				err = e
			}
		})
	}
	l.set("engine.parallel_speedup", runAt(1)/runAt(runtime.NumCPU()))
	return err
}

// storeLayer times Lookup and Store on each ResultStore backend with a
// real result.
func (l *layerRun) storeLayer() error {
	sample, err := shift.Run(shift.Config{
		Workload: layerWorkload, Design: shift.DesignSHIFT, CoreType: shift.LeanOoO, Cores: 4,
		WarmupRecords: 500, MeasureRecords: 500, Seed: l.seed,
	})
	if err != nil {
		return err
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = shift.Config{Workload: layerWorkload, Seed: int64(i)}.Key()
	}

	disk, err := shift.NewDiskStore(filepath.Join(l.tmp, "store-disk"))
	if err != nil {
		return err
	}
	tiered, err := shift.NewTieredStore(filepath.Join(l.tmp, "store-tiered"))
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	blobs := http.StripPrefix("/v1/blobs", store.NewBlobHandler(store.NewMem()))
	mux.Handle("/v1/blobs", blobs)
	mux.Handle("/v1/blobs/", blobs)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns ErrServerClosed on Close below
		close(served)
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	remote := shift.NewRemoteStore("http://"+ln.Addr().String()+"/v1/blobs", httpClient)

	for _, b := range []struct {
		name string
		s    shift.ResultStore
	}{{"mem", shift.NewResultCache()}, {"disk", disk}, {"tiered", tiered}, {"remote", remote}} {
		l.set("store."+b.name+"_put_us", l.perCall(func(i int) { b.s.Store(keys[i%len(keys)], sample) })*1e6)
		for _, k := range keys {
			b.s.Store(k, sample)
		}
		missed := 0
		l.set("store."+b.name+"_get_us", l.perCall(func(i int) {
			if got, ok := b.s.Lookup(keys[i%len(keys)]); !ok || got != sample {
				missed++
			}
		})*1e6)
		if missed > 0 {
			return fmt.Errorf("store.%s: %d lookups missed or returned another result", b.name, missed)
		}
	}

	mem := store.NewMem()
	shift.NewTieredStoreOver(mem).Store(keys[0], sample)
	blob, ok, err := mem.Get(keys[0])
	if err != nil || !ok {
		return fmt.Errorf("store.blob_bytes: blob not written: %v", err)
	}
	l.set("store.blob_bytes", float64(len(blob)))
	return nil
}

func (l *layerRun) walLayer() error {
	path := filepath.Join(l.tmp, "layer.wal")
	log, _, _, err := wal.Open(path)
	if err != nil {
		return err
	}
	rec := bytes.Repeat([]byte("journal-record-"), 16) // 240 bytes, about a job cell entry
	appendOne := func(int) {
		if e := log.Append(rec); e != nil {
			err = e
		}
	}
	l.set("wal.append_sync_us", l.perCall(appendOne)*1e6)
	log.SetNoSync(true)
	l.set("wal.append_nosync_us", l.perCall(appendOne)*1e6)
	for i := log.Records(); i < l.scale(20000); i++ {
		appendOne(i)
	}
	n := log.Records()
	if e := log.Close(); e != nil && err == nil {
		err = e
	}
	if err != nil {
		return err
	}
	l.set("wal.replay_us_per_rec", l.batchTime(func() {
		lg, recs, _, e := wal.Open(path)
		if e != nil || len(recs) != n {
			err = fmt.Errorf("wal replay: %d of %d records: %v", len(recs), n, e)
			return
		}
		lg.Close()
	})/float64(n)*1e6)
	return err
}

// jobsLayer times the job manager over an engine that costs nothing, so
// what is left is admission, queue, event log and (for the journaled
// row) the journal.
func (l *layerRun) jobsLayer() error {
	cells := make([]shift.Cell, len(g12Designs))
	for i, d := range g12Designs {
		cells[i] = shift.Cell{Label: d.String(), Config: l.layerCell(d)}
	}
	free := func(shift.Config) (shift.RunResult, error) { return shift.RunResult{}, nil }
	waitDone := func(j *jobs.Job) {
		n := 0
		for {
			evs, terminal, changed := j.EventsSince(n)
			n += len(evs)
			if terminal {
				return
			}
			<-changed
		}
	}

	m := jobs.New(jobs.Config{Workers: 2, MaxQueue: 1 << 20, Run: free})
	var err error
	l.set("jobs.cell_overhead_us", l.perCall(func(int) {
		j, e := m.Submit(cells)
		if e != nil {
			err = e
			return
		}
		waitDone(j)
	})/float64(len(cells))*1e6)
	var last *jobs.Job
	l.set("jobs.submit_us", l.perCall(func(int) {
		if last, err = m.Submit(cells); err != nil {
			return
		}
	})*1e6)
	if last != nil {
		waitDone(last)
	}
	m.Close()
	if err != nil {
		return err
	}

	journal, err := jobs.OpenWAL(filepath.Join(l.tmp, "jobs-layer.wal"))
	if err != nil {
		return err
	}
	jm, err := jobs.Open(jobs.Config{Workers: 2, MaxQueue: 1 << 20, Run: free, Journal: journal})
	if err != nil {
		return err
	}
	l.set("jobs.journaled_submit_us", l.perCall(func(int) {
		j, e := jm.Submit(cells)
		if e != nil {
			err = e
			return
		}
		waitDone(j)
	})*1e6)
	jm.Close()
	return err
}

func (l *layerRun) specLayer() error {
	var err error
	l.set("spec.compile_us", l.perCall(func(i int) {
		doc := fmt.Sprintf(`{"name": "bench-%d", "seed": %d, "workload": {"base": %q, "scale": 0.5}}`, i, l.seed, layerWorkload)
		if _, e := spec.Load([]byte(doc), nil); e != nil {
			err = e
		}
	})*1e6)
	return err
}

// mkTmp makes a scratch directory under the layer run's own.
func (l *layerRun) mkTmp(name string) (string, error) {
	dir := filepath.Join(l.tmp, name)
	return dir, os.MkdirAll(dir, 0o755)
}
