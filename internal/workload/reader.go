package workload

import (
	"shift/internal/trace"
)

// frame is one call-stack entry of the core's executor.
type frame struct {
	fi  int32 // function index; OS functions are encoded as ^index
	pos int32 // next block offset within the function
}

// CoreReader generates the retire-order instruction fetch stream of one
// core executing the workload. It implements trace.Reader and never returns
// io.EOF: callers bound it with trace.Limit or a record budget.
//
// The executor is an explicit stack machine: each Next() call decides how
// the current block visit terminates (sequential, call, return, branch,
// trap) and emits exactly one record.
type CoreReader struct {
	w      *Workload
	coreID int
	rng    *trace.RNG
	zipf   *trace.Zipf

	stack []frame
	// pendingSegs are the remaining segment entry functions of the
	// current request; the next one starts when the stack drains.
	pendingSegs []int
	// osDepth counts OS frames on the stack, so traps never nest.
	osDepth int
	// records counts emitted records.
	records int64
}

// NewCoreReader returns the instruction stream of core `core`. Streams for
// different cores are independent interleavings of the same request types.
func (w *Workload) NewCoreReader(core int) *CoreReader {
	rng := trace.NewRNG(w.params.Seed*1000003 + int64(core)*7919 + 17)
	r := &CoreReader{w: w, coreID: core, rng: rng}
	if w.params.RequestZipf > 0 && w.params.RequestTypes > 1 {
		r.zipf = trace.NewZipf(rng, w.params.RequestTypes, w.params.RequestZipf)
	}
	return r
}

func (r *CoreReader) fn(fi int32) *function {
	if fi < 0 {
		return &r.w.osFuncs[^fi]
	}
	return &r.w.funcs[fi]
}

func (r *CoreReader) push(fi int32) {
	r.stack = append(r.stack, frame{fi: fi})
	if fi < 0 {
		r.osDepth++
	}
}

func (r *CoreReader) pop() {
	top := r.stack[len(r.stack)-1]
	if top.fi < 0 {
		r.osDepth--
	}
	r.stack = r.stack[:len(r.stack)-1]
}

// pushOSSeq pushes a fixed sequence of OS functions so they execute in
// order (last pushed runs first, so push in reverse).
func (r *CoreReader) pushOSSeq(seq []int) {
	for i := len(seq) - 1; i >= 0; i-- {
		r.push(int32(^seq[i]))
	}
}

// startRequest selects the next request from the mix and primes the
// executor: (optionally) the scheduler path, then the dispatch functions,
// then the request's segment sequence one entry at a time.
func (r *CoreReader) startRequest() {
	p := &r.w.params
	rt := 0
	if r.zipf != nil {
		rt = r.zipf.Next()
	} else if p.RequestTypes > 1 {
		rt = r.rng.Intn(p.RequestTypes)
	}
	r.pendingSegs = r.w.segments[rt]
	for i := len(r.w.dispatch) - 1; i >= 0; i-- {
		r.push(int32(r.w.dispatch[i]))
	}
	if r.rng.Bool(p.SchedProb) {
		r.pushOSSeq(r.w.schedSeq)
	}
}

// refill tops up the stack: the next pending segment of the current
// request, or a fresh request when the segment list is drained.
func (r *CoreReader) refill() {
	for len(r.stack) == 0 {
		if len(r.pendingSegs) > 0 {
			r.push(int32(r.pendingSegs[0]))
			r.pendingSegs = r.pendingSegs[1:]
			return
		}
		r.startRequest()
	}
}

// appDepth returns the number of application frames on the stack.
func (r *CoreReader) appDepth() int { return len(r.stack) - r.osDepth }

// Next implements trace.Reader. It never returns an error.
func (r *CoreReader) Next() (trace.Record, error) {
	if len(r.stack) == 0 {
		r.refill()
	}
	p := &r.w.params // by pointer: Params is too fat to copy per record
	top := &r.stack[len(r.stack)-1]
	f := r.fn(top.fi)
	blk := trace.BlockAddr(f.entry + top.pos)
	inOS := top.fi < 0

	// Decide how this visit terminates. Precedence: trap interrupts
	// anything (but never nests); then call sites; then skip branches;
	// then end-of-function return; else sequential fall-through.
	// The static block metadata is consulted once per visit.
	siteIdx, skip := int16(-1), int8(0)
	if !inOS && top.pos < f.blocks {
		m := r.w.meta[f.meta+top.pos]
		siteIdx, skip = m.site, m.skip
	}
	var kind trace.Kind
	switch {
	case r.osDepth == 0 && r.rng.Bool(p.TrapRate):
		kind = trace.KindTrap
		// Resume at the next block after the handler returns; a frame
		// interrupted on its last block is popped when it is re-entered
		// (see trimDeadFrames).
		top.pos++
		h := r.w.handlers[r.rng.Intn(len(r.w.handlers))]
		r.pushOSSeq(h)
	case !inOS && siteIdx >= 0 && r.appDepth() < p.CallDepth:
		site := r.w.sites[siteIdx]
		callee := site.callee
		if site.biased {
			// Stable per-core preference: the same core always takes the
			// same alternate here, but different cores take different
			// ones (cross-core control-flow divergence).
			callee = site.alts[(r.coreID+int(siteIdx))%len(site.alts)]
		} else if r.rng.Bool(p.VaryProb) {
			callee = site.alts[r.rng.Intn(len(site.alts))]
		}
		kind = trace.KindCall
		top.pos++
		r.push(callee)
	case !inOS && skip > 0:
		kind = trace.KindBranch
		top.pos += int32(skip) // static always-taken branch
	case top.pos >= f.blocks-1:
		kind = trace.KindReturn
		r.pop()
	default:
		kind = trace.KindSeq
		top.pos++
	}

	// Clean up any frames that were left positioned past their end by a
	// trap or skip: they return immediately on re-entry. (Handled lazily
	// here so a single Next() emits exactly one record.) The top frame is
	// nearly always live, so the test is inlined and the loop called only
	// when there is a frame to pop.
	if n := len(r.stack); n > 0 {
		if t := r.stack[n-1]; t.pos >= r.fn(t.fi).blocks {
			r.trimDeadFrames()
		}
	}

	rec := trace.Record{Block: blk, Instrs: r.instrs(kind), Kind: kind}
	r.records++
	return rec, nil
}

// trimDeadFrames pops frames whose position ran past the function end
// without emitting their return record; the *previous* record already
// carried the control transfer (branch past end / trap on last block), so
// these frames have nothing left to execute.
func (r *CoreReader) trimDeadFrames() {
	for len(r.stack) > 0 {
		top := &r.stack[len(r.stack)-1]
		if top.pos < r.fn(top.fi).blocks {
			return
		}
		r.pop()
	}
}

// instrs models the number of instructions retired during a block visit.
// A 64-byte block holds 16 4-byte instructions; a visit cut short by a
// control transfer retires fewer, while loop-heavy code (high LoopWeight)
// re-executes within the block and retires more. The draws are
// RNG.Intn(12) and Intn(40) spelled with constant divisors — the same
// values without a hardware divide (at most 16 + 47 retire, far inside
// the record's 16 bits).
func (r *CoreReader) instrs(kind trace.Kind) uint16 {
	base := 0
	switch kind {
	case trace.KindSeq:
		base = 16
	default:
		base = 4 + int(r.rng.Uint64()%12) // cut short at a uniform point
	}
	if lw := r.w.params.LoopWeight; lw > 0 && r.rng.Bool(lw) {
		base += 8 + int(r.rng.Uint64()%40) // loop iterations resident in the block
	}
	return uint16(base)
}

var _ trace.Reader = (*CoreReader)(nil)
