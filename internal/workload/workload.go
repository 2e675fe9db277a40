// Package workload synthesizes retire-order instruction fetch traces with
// the statistical structure of the server workloads evaluated in the SHIFT
// paper (Table I): multi-megabyte instruction working sets spread over deep
// software stacks, highly recurring request-level control flow with small
// per-request variations, and low-rate OS interference (traps, scheduler
// invocations, context switches).
//
// The paper used full-system traces of commercial applications (TPC-C on
// DB2/Oracle, TPC-H, Darwin streaming, SPECweb99, Nutch) on Solaris. Those
// traces are proprietary; this package is the substitution documented in
// DESIGN.md. It reproduces the properties the prefetchers exploit:
//
//   - a static code layout of functions made of contiguous basic blocks,
//     connected by a layered call graph with hot shared callees;
//   - request types whose canonical paths recur exactly, so temporal
//     streams repeat across requests and across cores;
//   - stochastic control-flow variation (alternate callees, skipped
//     blocks) that fragments streams at a controlled rate;
//   - OS trap handlers injected at a controlled rate;
//   - a shared dispatch loop executed between requests.
//
// Every core running the same Workload observes the same program and the
// same request types but an independent interleaving, which is exactly the
// cross-core commonality SHIFT exploits (paper Section 3).
package workload

import (
	"errors"
	"fmt"

	"shift/internal/trace"
)

// Code-region bases (block addresses). Application and OS code live in
// disjoint regions of the 40-bit physical space, far apart so spatial
// regions never straddle them.
const (
	// AppBaseBlock is the first application code block (byte 0x1_0000_0000).
	AppBaseBlock trace.BlockAddr = 0x4000000
	// OSBaseBlock is the first OS/trap-handler code block (byte 0x2_0000_0000).
	OSBaseBlock trace.BlockAddr = 0x8000000
)

// MaxFootprintBytes bounds each code region, application and OS: the
// span between the two bases, so application code ends below the OS's,
// and every block address and block count of a workload fits 31 bits.
const MaxFootprintBytes = int(OSBaseBlock-AppBaseBlock) * trace.BlockBytes

// Params describes one synthetic workload. The seven presets in Catalog()
// model the Table I applications; custom workloads may be built directly.
type Params struct {
	// Name identifies the workload in reports ("OLTP DB2", ...).
	Name string
	// Seed determines the static code layout and, combined with a core
	// index, each core's dynamic stream.
	Seed int64

	// FootprintBytes is the application instruction working set size.
	FootprintBytes int
	// OSFootprintBytes is the OS/trap-handler code size.
	OSFootprintBytes int

	// RequestTypes is the number of distinct request classes (transaction
	// types, query plans, URL handlers, ...).
	RequestTypes int
	// RequestZipf skews the request mix toward low-numbered types
	// (0 = uniform).
	RequestZipf float64

	// FuncBlocksMean is the mean function size in 64-byte blocks.
	FuncBlocksMean int
	// CallDepth bounds the call stack depth below the request root.
	CallDepth int
	// CallSiteDensity is the probability that a given block position
	// within a function hosts a call site.
	CallSiteDensity float64

	// VaryProb is the probability that a call site diverts to an alternate
	// callee (per-request control-flow variation, paper Section 1:
	// "small, yet numerous differences in the control flow").
	VaryProb float64
	// SkipProb is the probability that a block position hosts a *static*
	// always-taken forward branch skipping 1-2 blocks. These are fixed at
	// program build time, modelling the taken branches and cold basic
	// blocks (error paths) that break sequential runs in real server code
	// without fragmenting temporal streams: the same path recurs exactly
	// on every traversal.
	SkipProb float64
	// CoreBias is the fraction of call sites whose callee choice is a
	// stable per-core preference rather than the canonical callee. Such
	// sites model persistent cross-core control-flow differences
	// (core-local state, scheduling affinity): a core's *own* history
	// predicts them perfectly, but a history recorded by another core
	// systematically mispredicts them. This is what separates PIF's 92%
	// miss coverage from SHIFT's 81% in the paper while cross-core
	// stream commonality stays above 90%.
	CoreBias float64
	// TrapRate is the per-block-visit probability of an OS trap
	// (TLB miss handler, interrupt).
	TrapRate float64
	// SchedProb is the probability that the OS scheduler path runs
	// between two requests (context switch).
	SchedProb float64

	// LoopWeight in [0,1] biases per-visit retired-instruction counts
	// upward, modelling loop-heavy computation (DSS scans) which lowers
	// the workload's I-MPKI without changing its block stream.
	LoopWeight float64
}

// Validate reports the first problem with p, or nil.
func (p Params) Validate() error {
	switch {
	case p.Name == "":
		return errors.New("workload: empty Name")
	case p.FootprintBytes < 16*trace.BlockBytes:
		return fmt.Errorf("workload %s: FootprintBytes %d too small", p.Name, p.FootprintBytes)
	case p.FootprintBytes > MaxFootprintBytes:
		return fmt.Errorf("workload %s: FootprintBytes %d above %d", p.Name, p.FootprintBytes, MaxFootprintBytes)
	case p.OSFootprintBytes < 4*trace.BlockBytes:
		return fmt.Errorf("workload %s: OSFootprintBytes %d too small", p.Name, p.OSFootprintBytes)
	case p.OSFootprintBytes > MaxFootprintBytes:
		return fmt.Errorf("workload %s: OSFootprintBytes %d above %d", p.Name, p.OSFootprintBytes, MaxFootprintBytes)
	case p.RequestTypes < 1:
		return fmt.Errorf("workload %s: RequestTypes %d < 1", p.Name, p.RequestTypes)
	case p.FuncBlocksMean < 1:
		return fmt.Errorf("workload %s: FuncBlocksMean %d < 1", p.Name, p.FuncBlocksMean)
	case p.CallDepth < 1:
		return fmt.Errorf("workload %s: CallDepth %d < 1", p.Name, p.CallDepth)
	case p.CallSiteDensity < 0 || p.CallSiteDensity > 1:
		return fmt.Errorf("workload %s: CallSiteDensity %v out of [0,1]", p.Name, p.CallSiteDensity)
	case p.VaryProb < 0 || p.VaryProb > 1:
		return fmt.Errorf("workload %s: VaryProb %v out of [0,1]", p.Name, p.VaryProb)
	case p.SkipProb < 0 || p.SkipProb > 1:
		return fmt.Errorf("workload %s: SkipProb %v out of [0,1]", p.Name, p.SkipProb)
	case p.CoreBias < 0 || p.CoreBias > 1:
		return fmt.Errorf("workload %s: CoreBias %v out of [0,1]", p.Name, p.CoreBias)
	case p.TrapRate < 0 || p.TrapRate > 1:
		return fmt.Errorf("workload %s: TrapRate %v out of [0,1]", p.Name, p.TrapRate)
	case p.SchedProb < 0 || p.SchedProb > 1:
		return fmt.Errorf("workload %s: SchedProb %v out of [0,1]", p.Name, p.SchedProb)
	case p.LoopWeight < 0 || p.LoopWeight > 1:
		return fmt.Errorf("workload %s: LoopWeight %v out of [0,1]", p.Name, p.LoopWeight)
	case p.RequestZipf < 0:
		return fmt.Errorf("workload %s: RequestZipf %v < 0", p.Name, p.RequestZipf)
	}
	return nil
}

// callSite is a static call site: position pos within a function calls
// callee; under variation it calls one of alts instead. A biased site
// always calls the alt selected by the executing core's identity.
type callSite struct {
	callee int32
	alts   [2]int32
	biased bool
}

// blockMeta is the per-block static control-flow metadata of an
// application function, packed so the reader's per-record lookups of the
// call site and branch skip touch one array (and usually one cache line)
// instead of two.
type blockMeta struct {
	// site is the index into w.sites of the call site at this block,
	// or -1.
	site int16
	// skip is the position advance of a static always-taken forward
	// branch (0 = fall through; >=2 skips blocks).
	skip int8
}

// function is a contiguous run of blocks with call sites and static taken
// branches at fixed positions. Its fields are 32 bits wide: Validate keeps
// every block address and block count of a workload below 2^31.
type function struct {
	// entry is the block address of the function's first block.
	entry int32
	// blocks is the function's length in blocks.
	blocks int32
	// meta is where the function's block metadata starts in
	// Workload.meta (application functions only).
	meta int32
}

// Workload is an immutable synthetic program plus its parameters. It is
// safe for concurrent use; per-core readers carry all mutable state.
type Workload struct {
	params Params

	funcs []function
	sites []callSite
	// meta holds the static metadata of every application block, one
	// function after another (see function.meta). Lookups are on the hot
	// path, so it is dense, with sentinels packed at build time.
	meta []blockMeta

	// osFuncs are trap-handler functions in the OS region; handlers[i]
	// is the function sequence run by trap handler i.
	osFuncs  []function
	handlers [][]int
	// schedSeq is the OS scheduler path run between requests.
	schedSeq []int

	// dispatch are the request-dispatch functions run before each request.
	dispatch []int

	// segments[rt] is the fixed sequence of entry functions a request of
	// type rt executes (its "phases": parse, plan, execute, commit, ...).
	// Each entry is executed with its full call subtree. Fixing the
	// sequence per type makes request paths long, spread across the
	// footprint, and exactly recurring — the temporal-stream structure
	// the paper's prefetchers exploit.
	segments [][]int
}

// New builds the static program for p.
func New(p Params) (*Workload, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	w := &Workload{params: p}
	rng := trace.NewRNG(p.Seed)

	appBlocks := p.FootprintBytes / trace.BlockBytes
	w.buildAppCode(rng, appBlocks)
	if len(w.funcs) < p.RequestTypes+4 {
		return nil, fmt.Errorf("workload %s: footprint too small for %d request types (%d functions)",
			p.Name, p.RequestTypes, len(w.funcs))
	}
	w.buildOSCode(rng, p.OSFootprintBytes/trace.BlockBytes)
	w.wireCallGraph(rng)
	return w, nil
}

// Params returns the workload's parameters.
func (w *Workload) Params() Params { return w.params }

// AppBlocks returns the number of application code blocks.
func (w *Workload) AppBlocks() int {
	n := 0
	for _, f := range w.funcs {
		n += int(f.blocks)
	}
	return n
}

// layOut returns functions laid out contiguously from base until blocks
// are consumed, each 1 + rng.Intn(span) blocks long (the last cut to
// fit). A draw-only pass over a copy of rng counts them first, so the
// slice is allocated once, at its final size.
func layOut(rng *trace.RNG, base trace.BlockAddr, blocks, span int) []function {
	n, probe := 0, *rng
	for remaining := blocks; remaining > 0; n++ {
		remaining -= 1 + probe.Intn(span)
	}
	fs := make([]function, 0, n)
	next := base
	for remaining := blocks; remaining > 0; {
		size := min(1+rng.Intn(span), remaining)
		fs = append(fs, function{entry: int32(next), blocks: int32(size)})
		next += trace.BlockAddr(size)
		remaining -= size
	}
	return fs
}

// buildAppCode lays out application functions contiguously from
// AppBaseBlock until the footprint is consumed, each uniform on [1,
// 2*mean-1] blocks, mean = FuncBlocksMean.
func (w *Workload) buildAppCode(rng *trace.RNG, appBlocks int) {
	w.funcs = layOut(rng, AppBaseBlock, appBlocks, 2*w.params.FuncBlocksMean-1)
}

// buildOSCode lays out trap handlers and the scheduler path in the OS
// region. Handlers are short (1-3 functions); the scheduler is longer.
func (w *Workload) buildOSCode(rng *trace.RNG, osBlocks int) {
	w.osFuncs = layOut(rng, OSBaseBlock, osBlocks, 5) // OS handler helpers are small
	nos := len(w.osFuncs)
	// A few distinct trap handlers, each a fixed short sequence of OS funcs.
	handlerCount := 4
	if handlerCount > nos {
		handlerCount = nos
	}
	for h := 0; h < handlerCount; h++ {
		seqLen := 1 + rng.Intn(3)
		seq := make([]int, 0, seqLen)
		for i := 0; i < seqLen; i++ {
			seq = append(seq, rng.Intn(nos))
		}
		w.handlers = append(w.handlers, seq)
	}
	// Scheduler path: a longer fixed sequence.
	schedLen := 3 + rng.Intn(4)
	for i := 0; i < schedLen; i++ {
		w.schedSeq = append(w.schedSeq, rng.Intn(nos))
	}
}

// wireCallGraph assigns request roots, dispatch functions, and call sites.
//
// The call graph is layered: a function may only call functions with a
// strictly greater index, bounding recursion structurally. Callee choice is
// Zipf-skewed toward the region immediately following the caller, with a
// bias toward the top third of the index space, which models hot shared
// library/OS-interface code reused by all request types.
func (w *Workload) wireCallGraph(rng *trace.RNG) {
	n := len(w.funcs)
	p := w.params

	// Dispatch: two fixed functions run before every request.
	w.dispatch = []int{0, 1}

	// Request segments: each request type executes a fixed sequence of
	// 6-8 entry functions spread uniformly across the code footprint.
	segBase := 2
	w.segments = make([][]int, p.RequestTypes)
	for rt := range w.segments {
		segLen := 6 + rng.Intn(3)
		seg := make([]int, segLen)
		for i := range seg {
			seg[i] = segBase + rng.Intn(n-segBase)
		}
		w.segments[rt] = seg
	}

	pickCallee := func(caller int) int {
		lo := caller + 1
		if lo >= n {
			return -1
		}
		span := n - lo
		// 60%: near the caller (forward locality within the same layer);
		// 40%: anywhere forward, Zipf toward hot shared tail functions.
		if rng.Bool(0.6) {
			reach := span
			if reach > 64 {
				reach = 64
			}
			return lo + rng.Intn(reach)
		}
		// Hot shared code: map a Zipf-ish draw onto the upper region.
		off := rng.Intn(span)
		if rng.Bool(0.5) {
			off = span - 1 - off/4 // compress toward the top of the space
		}
		return lo + off
	}

	// The blocks' control flow is drawn twice from one RNG state: the first
	// pass counts the call sites, so the second fills a table of their
	// exact size.
	w.meta = make([]blockMeta, w.AppBlocks())
	start, sites := *rng, 0
	for pass := range 2 {
		if pass == 1 {
			*rng = start
			w.sites = make([]callSite, 0, min(sites, 1<<15-1))
		}
		off := 0
		for fi := range w.funcs {
			f := &w.funcs[fi]
			f.meta = int32(off)
			meta := w.meta[off : off+int(f.blocks)]
			off += len(meta)
			for b := range meta {
				meta[b].site = -1
				// Static taken branch: skip 1-2 blocks (advance 2-3), only
				// when the target stays inside the function.
				if b < len(meta)-3 && rng.Bool(p.SkipProb) {
					meta[b].skip = int8(2 + rng.Intn(2))
					continue // a taken branch ends the block; no call here
				}
				if !rng.Bool(p.CallSiteDensity) {
					continue
				}
				callee := pickCallee(fi)
				if callee < 0 {
					continue
				}
				cs := callSite{callee: int32(callee), biased: rng.Bool(p.CoreBias)}
				for a := range cs.alts {
					alt := pickCallee(fi)
					if alt < 0 {
						alt = callee
					}
					cs.alts[a] = int32(alt)
				}
				switch {
				case pass == 0:
					sites++
				case len(w.sites) < 1<<15-1: // else the table is full; extremely large footprints only
					w.sites = append(w.sites, cs)
					meta[b].site = int16(len(w.sites) - 1)
				}
			}
		}
	}
}
