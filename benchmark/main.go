// Command benchmark is the repository's benchmark: four long-run
// workloads over the library and over a live shiftd, three end-to-end
// metrics per workload, and a ledger of per-layer costs from a separate
// traced run. README.md defines every workload and metric.
//
//	go run -C benchmark shift/benchmark                       # all four workloads
//	go run -C benchmark shift/benchmark -workload sweep_exact -seed 7 -seconds 20 -trace 0
//	go run -C benchmark shift/benchmark -workload service_hot -trace 1   # layer ledger + trace file
//	go run -C benchmark shift/benchmark -selfcheck 5           # do two sets of runs agree?
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so that its deferred clean-up runs on
// every path: 0 a correct run, 1 a run with failed cells or checks, 2
// the benchmark could not run.
func run() int {
	var (
		workload  = flag.String("workload", "", "run one workload (default: all four, one after another)")
		seed      = flag.Int64("seed", 1, "bench seed: the only input that changes the generated load")
		seconds   = flag.Int("seconds", 15, "length of the timed phase; sets the repetition count")
		traceFlag = flag.Int("trace", 0, "1 = the traced run: layer metrics and trace_<workload>.json")
		selfcheck = flag.Int("selfcheck", 0, "run two interleaved sets of N full runs and compare their medians with the bounds")
		smoke     = flag.Bool("smoke", false, "tiny sizes: every code path in seconds, no useful numbers")

		worker  = flag.Bool("worker", false, "internal: run as a worker process")
		phase   = flag.String("phase", "", "internal: worker phase")
		reps    = flag.Int("reps", 0, "internal: worker repetitions")
		startNs = flag.Int64("start-ns", 0, "internal: harness clock at worker start")
		shiftd  = flag.String("shiftd", "", "internal: shiftd binary")
		outDir  = flag.String("out", "", "internal: the worker's scratch directory")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if flag.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *worker {
		err := runWorker(workerArgs{
			Workload: *workload, Phase: *phase, Seed: *seed, Reps: *reps, Smoke: *smoke,
			StartNs: *startNs, Shiftd: *shiftd, OutDir: *outDir,
		})
		if err != nil {
			return fail(err)
		}
		return 0
	}
	selected := workloads
	if *workload != "" {
		def, ok := workloadByName(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		selected = []workloadDef{def}
	}
	if *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		return fail(errors.New("-seconds must be at least 1 and -trace 0 or 1"))
	}

	// An interrupt cancels the context, which kills the running worker's
	// process group before the harness leaves.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h, err := newHarness(ctx, *smoke)
	if err != nil {
		return fail(err)
	}
	defer h.cleanup()

	if *selfcheck > 0 {
		if !h.selfcheck(selected, *seed, *seconds, *selfcheck) {
			return 1
		}
		return 0
	}
	code := 0
	for _, def := range selected {
		var res result
		if *traceFlag == 1 {
			res = h.runTraced(def, *seed)
		} else {
			res = h.runUntraced(def, *seed, *seconds)
		}
		res.print(os.Stdout)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// harness is the parent process: it builds the programs under test
// before any clock starts and runs workers one after another.
type harness struct {
	ctx    context.Context
	out    string // benchmark/out
	tmp    string // scratch under out, removed on exit
	self   string // this binary, re-executed as the worker
	shiftd string
	z      sizing
	smoke  bool
}

func newHarness(ctx context.Context, smoke bool) (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h := &harness{ctx: ctx, out: filepath.Join(root, "benchmark", "out"), self: self, z: fullSizing(), smoke: smoke}
	if smoke {
		h.z = smokeSizing()
	}
	if err := os.MkdirAll(filepath.Join(h.out, "bin"), 0o755); err != nil {
		return nil, err
	}
	if h.tmp, err = os.MkdirTemp(h.out, "tmp-"); err != nil {
		return nil, err
	}
	// Build the program under test now, so that no clock ever contains
	// compilation. (`go run` built this harness before it started.)
	h.shiftd = filepath.Join(h.out, "bin", "shiftd")
	build := exec.Command("go", "build", "-o", h.shiftd, "./cmd/shiftd")
	build.Dir = root
	if outp, err := build.CombinedOutput(); err != nil {
		h.cleanup()
		return nil, fmt.Errorf("building cmd/shiftd: %v\n%s", err, outp)
	}
	return h, nil
}

func (h *harness) cleanup() { os.RemoveAll(h.tmp) }

// findRoot locates the repository: the directory, at or above the
// working directory, that holds both BENCHMARK.json and cmd/shiftd.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for i := 0; i < 4; i++ {
		if fileExists(filepath.Join(dir, "BENCHMARK.json")) && fileExists(filepath.Join(dir, "cmd", "shiftd", "main.go")) {
			return dir, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", errors.New("repository root (BENCHMARK.json and cmd/shiftd) not found at or above the working directory")
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// usage is what the kernel accounted to a finished worker process.
type usage struct {
	maxRSSKB int64
	cpuS     float64
}

// runLimit bounds one run, all of its workers together: the contract
// allows a run 180 s, and a run that cannot finish must fail — its
// cells counted as failed — before the driver has to kill it.
const runLimit = 165 * time.Second

// spawn runs one worker to its end and returns its report. The worker
// leads its own process group so that, whatever happens to it, the
// group — every shiftd child included — can be killed and is gone
// before spawn returns. ctx carries the run's deadline. Every worker
// runs confined to one processor (affinity.go) but the one that
// measures what engine parallelism gains.
func (h *harness) spawn(ctx context.Context, workload, phase string, seed int64, reps int) (workerReport, usage, error) {
	args := []string{
		"-worker", "-workload", workload, "-phase", phase, "-seed", strconv.FormatInt(seed, 10),
		"-reps", strconv.Itoa(reps), "-shiftd", h.shiftd, "-out", h.tmp,
	}
	if h.smoke {
		args = append(args, "-smoke")
	}
	var stdout bytes.Buffer
	start := time.Now()
	cmd := exec.Command(h.self, append(args, "-start-ns", strconv.FormatInt(start.UnixNano(), 10))...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	launch := startConfined
	if phase == phaseParallel {
		launch = (*exec.Cmd).Start
	}
	if err := launch(cmd); err != nil {
		return workerReport{}, usage{}, err
	}
	pgid := cmd.Process.Pid
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-ctx.Done():
		_ = syscall.Kill(-pgid, syscall.SIGKILL) // the group may already be gone
		<-done
		err = fmt.Errorf("stopped: %w", context.Cause(ctx))
	}
	reapGroup(pgid)
	if err != nil {
		return workerReport{}, usage{}, fmt.Errorf("worker %s/%s: %w", workload, phase, err)
	}
	var rep workerReport
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &rep); err != nil {
		return workerReport{}, usage{}, fmt.Errorf("worker %s/%s: reading its report: %w", workload, phase, err)
	}
	u := usage{cpuS: (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.maxRSSKB = ru.Maxrss
	}
	return rep, u, nil
}

// reapGroup kills whatever is left of a finished worker's process group
// and waits until the group is empty.
func reapGroup(pgid int) {
	for i := 0; i < 200; i++ {
		if err := syscall.Kill(-pgid, syscall.SIGKILL); errors.Is(err, syscall.ESRCH) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// processes is how many fresh worker processes one run uses. Each sets
// the workload up and then runs its share of the timed repetitions, so
// every end-to-end figure rests on three independent processes: setup_s
// and peak_rss_mb are medians over them, cells_per_s pools their
// repetitions. One ~2 s set-up ranged 21 % between runs of the same
// code, and a process keeps whatever memory layout it drew for all of
// its repetitions.
const processes = 3

// runUntraced is one end-to-end run of one workload.
func (h *harness) runUntraced(def workloadDef, seed int64, seconds int) result {
	ctx, cancel := context.WithTimeout(h.ctx, runLimit)
	defer cancel()
	res := newResult(def.Name)
	reps := h.z.repsPerProcess(def.Name, seconds)
	perRep := h.z.cellsPerRep(def.Name)
	res.Attempted = processes * reps * perRep

	var setupS, rssMB, repS, canary []float64
	for i := 0; i < processes; i++ {
		rep, use, err := h.spawn(ctx, def.Name, phaseTimed, seed, reps)
		if err != nil {
			return res.failAll(err)
		}
		res.Failed += rep.Failed
		res.notes = append(res.notes, rep.Notes...)
		if len(rep.RepS) != reps {
			res.Failed += (reps - len(rep.RepS)) * perRep
			res.notes = append(res.notes, fmt.Sprintf("process %d: %d of %d repetitions completed", i, len(rep.RepS), reps))
		}
		rssKB := use.maxRSSKB
		if def.service {
			rssKB = rep.ChildMaxRSSKB
		}
		setupS = append(setupS, rep.SetupS)
		rssMB = append(rssMB, float64(rssKB)/1024)
		repS = append(repS, rep.RepS...)
		canary = append(canary, rep.CanaryMs...)
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0
	if len(repS) == 0 {
		return res
	}

	q1, q2, q3 := quartiles(repS)
	res.set("setup_s", median(setupS))
	res.set("cells_per_s", float64(perRep)/q1)
	res.set("peak_rss_mb", median(rssMB))
	res.detail("%d processes: set-ups %s s, peak resident sets %s MB", processes, fmtList(setupS), fmtList(rssMB))
	res.detail("R=%d repetitions of %d cells: lower quartile %.4f s, median %.4f s, upper quartile %.4f s, IQR %.2f %% of median",
		len(repS), perRep, q1, q2, q3, 100*(q3-q1)/q2)
	res.detail("repetition times %s s", fmtList(repS))
	res.detail("host canary readings %s ms", fmtList(canary))
	return res
}

// runTraced is the separate traced run: one worker runs a few untraced
// then traced repetitions of the workload (the difference is the
// tracing overhead) and writes trace_<workload>.json; a second runs the
// layer micro-loops and the service layer rows, a third the one row
// that needs more than one processor.
func (h *harness) runTraced(def workloadDef, seed int64) result {
	ctx, cancel := context.WithTimeout(h.ctx, runLimit)
	defer cancel()
	res := newResult(def.Name)
	res.layer = true
	rep, use, err := h.spawn(ctx, def.Name, phaseTrace, seed, h.z.traceReps)
	if err != nil {
		return res.failAll(err)
	}
	res.Attempted, res.Failed, res.notes = rep.Attempted, rep.Failed, rep.Notes
	if len(rep.RepS) == 0 || len(rep.TracedRepS) == 0 {
		return res.failAll(errors.New("the traced worker completed no repetitions"))
	}
	traceFile := filepath.Join(h.out, traceName(def.Name))
	if err := os.Rename(filepath.Join(h.tmp, traceName(def.Name)), traceFile); err != nil {
		return res.failAll(err)
	}
	cpuS := use.cpuS
	if def.service {
		cpuS = rep.ChildCPUS
	}
	res.set("bench.trace_overhead_pct", pct(lowerQuartile(rep.TracedRepS), lowerQuartile(rep.RepS)))
	res.set("bench.rep_iqr_pct", 100*iqrShare(rep.RepS))
	res.set("bench.canary_ms", median(rep.CanaryMs))
	res.set("bench.canary_drift_pct", pct(rep.CanaryMs[len(rep.CanaryMs)-1], rep.CanaryMs[0]))
	res.set("proc.cpu_s_per_kcell", cpuS/float64(rep.TotalCells)*1000)
	res.detail("trace written to %s", traceFile)

	res.Correct = res.Failed == 0
	for _, phase := range []string{phaseLayers, phaseParallel} {
		layers, _, err := h.spawn(ctx, def.Name, phase, seed, 0)
		for name, v := range layers.Layers {
			res.set(name, v)
		}
		if err != nil {
			res.notes = append(res.notes, "layer loops: "+err.Error())
		}
		res.notes = append(res.notes, layers.Notes...)
		res.Correct = res.Correct && err == nil && len(layers.Notes) == 0
	}
	for _, m := range perLayer {
		if _, ok := res.values[m.Name]; !ok {
			res.Correct = false
			res.notes = append(res.notes, "layer metric "+m.Name+" was not measured")
		}
	}
	return res
}
