package sim

import (
	"fmt"

	"shift/internal/trace"
	"shift/internal/workload"
)

// batchBlockRounds is the lockstep granularity of RunBatch: each member
// system runs this many rounds back to back before the next member
// takes the same block. Coarse blocks keep one system's simulation
// state hot in cache for cores×rounds records at a time (instead of
// thrashing K working sets against each other every record) while the
// shared stream's consumer views stay within one block of each other,
// bounding the live chunk window.
const batchBlockRounds = 8192

// RunBatch executes several specs that consume the same trace stream in
// a single pass: every spec must agree on the workload(s), the core
// count, the warmup/measure window, and the sampling policy, while the
// system configuration (design point, seed, mode, history sizes, core
// type...) is free to vary. The per-core record streams are generated once (chunked
// producers, one zero-copy consumer view per member) and each member's
// system steps off them in block-lockstep, so each member observes
// exactly the per-core record order of a standalone Run — results are
// bit-identical to running every spec through Run, record for record.
//
// When every member configures the same branch predictor, its per
// record work is also shared: the predictor is a pure function of the
// common record stream, so the first member evaluates it and the rest
// replay the recorded outcomes (and report the identical statistics).
//
// A batch of one degenerates to Run. An incompatible batch returns an
// error naming the first mismatched spec.
func RunBatch(specs []RunSpec) ([]Result, error) {
	switch len(specs) {
	case 0:
		return nil, nil
	case 1:
		r, err := Run(specs[0])
		if err != nil {
			return nil, err
		}
		return []Result{r}, nil
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, fmt.Errorf("sim: batch spec %d: %w", i, err)
		}
	}
	if err := checkStreamCompatible(specs); err != nil {
		return nil, err
	}

	k := len(specs)
	cores := specs[0].Config.Cores
	readerSets := make([][]trace.Reader, k)
	for m := range readerSets {
		readerSets[m] = make([]trace.Reader, cores)
	}
	fanOut := func(cs *workload.CoreStream, core int) {
		for m := 0; m < k; m++ {
			readerSets[m][core] = cs.View(m)
		}
	}
	if src := specs[0].Source; src != nil {
		for c := 0; c < cores; c++ {
			r, err := src.NewCoreReader(c)
			if err != nil {
				return nil, fmt.Errorf("sim: source reader for core %d: %w", c, err)
			}
			fanOut(workload.NewStream(r, k), c)
		}
	} else if len(specs[0].Groups) == 0 {
		w, err := workload.Cached(specs[0].Workload)
		if err != nil {
			return nil, err
		}
		for c := 0; c < cores; c++ {
			fanOut(w.NewCoreStream(c, k), c)
		}
	} else {
		for gi, g := range specs[0].Groups {
			w, err := workload.Cached(specs[0].GroupWorkloads[gi])
			if err != nil {
				return nil, fmt.Errorf("group %q: %w", g.Name, err)
			}
			for _, c := range g.Cores {
				if c < 0 || c >= cores {
					return nil, fmt.Errorf("group %q core %d out of range", g.Name, c)
				}
				fanOut(w.NewCoreStream(c, k), c)
			}
		}
		for c, r := range readerSets[0] {
			if r == nil {
				return nil, fmt.Errorf("core %d not assigned to any group", c)
			}
		}
	}

	systems := make([]*System, k)
	for m := range systems {
		cfg := specs[m].Config
		if len(specs[m].Groups) > 0 && cfg.Prefetcher.Kind == KindSHIFT {
			cfg.Prefetcher.Groups = specs[m].Groups
		}
		sys, err := New(cfg, readerSets[m])
		if err != nil {
			return nil, err
		}
		systems[m] = sys
	}

	// Shared branch prediction: only when every member runs the same
	// predictor configuration (always true for the public experiment
	// grids, where the predictor is a Table I constant).
	shareBP := specs[0].Config.BranchPredictorEntries > 0
	for m := 1; m < k && shareBP; m++ {
		shareBP = specs[m].Config.BranchPredictorEntries == specs[0].Config.BranchPredictorEntries
	}
	if shareBP {
		buf := make([]uint8, batchBlockRounds*cores)
		for m, sys := range systems {
			sys.bpBuf = buf
			sys.bpLead = m == 0
			if m > 0 {
				// Followers alias the lead's predictors so their result
				// accounting (accuracy counters) reads the state the
				// shared evaluation advanced — identical, record for
				// record, to what a local predictor would have held. Their
				// own, untouched predictors go straight back.
				for _, h := range sys.bp {
					h.Release()
				}
				sys.bp = systems[0].bp
				for c := range sys.hot {
					sys.hot[c].bp = sys.bp[c]
				}
			}
		}
	}

	// Shared background data traffic: valid when every member draws the
	// identical data-side sequence — same per-core RNG seeds and data
	// rate, the same mesh, and no miss elimination anywhere (ElimProb
	// consumes the same RNG, which would shift the draw sequence
	// per-design).
	refCfg := specs[0].Config
	shareData := refCfg.ElimProb == 0
	for m := 1; m < k && shareData; m++ {
		c := specs[m].Config
		shareData = c.Seed == refCfg.Seed && c.DataMPKI == refCfg.DataMPKI &&
			c.ElimProb == 0 && c.Mesh == refCfg.Mesh
	}
	if shareData {
		buf := make([]uint64, batchBlockRounds*cores)
		for m, sys := range systems {
			sys.dsBuf = buf
			sys.dsLead = m == 0
		}
	}

	warm, meas := specs[0].WarmupRecords, specs[0].MeasureRecords
	for _, sys := range systems {
		if err := sys.checkSupply(warm + meas); err != nil {
			return nil, err
		}
	}
	if p := specs[0].Sampling.Normalized(); p.Enabled() {
		// Shared L1-I stepping for the functional segments: valid
		// whenever every member runs the identical instruction-cache
		// geometry (the cache's evolution is a pure function of the
		// shared record stream, so all members' L1-Is hold identical
		// content at every aligned round). The lead probes, followers
		// replay the hit bit, and each functional segment ends with a
		// bulk state copy into the followers.
		shareL1 := true
		for m := 1; m < k && shareL1; m++ {
			shareL1 = specs[m].Config.L1I == specs[0].Config.L1I
		}
		if shareL1 {
			blkBuf := make([]uint64, batchBlockRounds*cores)
			missBuf := make([]uint64, batchBlockRounds*cores)
			missCnt := make([]int32, cores)
			rounds := make([]int32, cores)
			for m, sys := range systems {
				sys.fnBlkBuf = blkBuf
				sys.l1Lead = m == 0
				sys.fnMissBuf = missBuf
				sys.fnMissCnt = missCnt
				sys.fnRounds = rounds
			}
		}
		// Sampled batch: every member walks the identical deterministic
		// segment schedule (validated equal by checkStreamCompatible),
		// so the lockstep replay buffers stay aligned across stepping
		// modes and each member's result is bit-identical to its
		// standalone RunSampled.
		var done int64
		for _, seg := range p.segments(warm, meas) {
			for _, sys := range systems {
				sys.applySegment(seg)
			}
			if seg.measured {
				for _, sys := range systems {
					sys.BeginInterval()
				}
			}
			ran, err := runLockstep(systems, seg.rounds)
			if err != nil {
				return nil, err
			}
			if seg.functional && shareL1 {
				// Catch the followers' instruction caches up with the
				// stepping the lead performed on everyone's behalf.
				lead := systems[0]
				for _, sys := range systems[1:] {
					for c := range sys.l1i {
						sys.l1i[c].CopyStateFrom(lead.l1i[c])
					}
				}
			}
			done += ran
			if ran < seg.rounds {
				phase := "measure"
				if done <= warm {
					phase = "warmup"
				}
				return nil, &StreamShortError{Phase: phase, Core: -1, Need: warm + meas, Have: done}
			}
			if seg.measured {
				for _, sys := range systems {
					sys.EndInterval()
				}
			}
		}
		out := make([]Result, k)
		for m, sys := range systems {
			sys.setFunctional(false)
			if err := sys.checkConsumed(make([]int64, cores), warm+meas); err != nil {
				return nil, err
			}
			// Per-member policy: members may differ in the reporting
			// confidence level (it never touches the schedule).
			out[m] = sys.SampledResults(specs[m].Sampling)
		}
		releaseAll(systems)
		return out, nil
	}

	if warm > 0 {
		ran, err := runLockstep(systems, warm)
		if err != nil {
			return nil, err
		}
		if ran < warm {
			return nil, &StreamShortError{Phase: "warmup", Core: -1, Need: warm, Have: ran}
		}
	}
	for _, sys := range systems {
		sys.MarkMeasurement()
	}
	ran, err := runLockstep(systems, meas)
	if err != nil {
		return nil, err
	}
	if ran < meas {
		return nil, &StreamShortError{Phase: "measure", Core: -1, Need: meas, Have: ran}
	}
	out := make([]Result, k)
	for m, sys := range systems {
		// Catch a single dry stream the round loop papered over (see
		// System.checkConsumed); batch systems start at zero consumed.
		if err := sys.checkConsumed(make([]int64, cores), warm+meas); err != nil {
			return nil, err
		}
		out[m] = sys.Results()
	}
	releaseAll(systems)
	return out, nil
}

// releaseAll hands every member's tables back once the batch has
// succeeded and its results are extracted (see System.release).
func releaseAll(systems []*System) {
	for _, sys := range systems {
		sys.release()
	}
}

// runLockstep advances every system by up to `records` rounds in blocks
// of batchBlockRounds — the lead runs a block (recording shared
// outcomes), then each follower replays the same block — and returns
// the rounds completed. Streams never end for the synthetic workload
// views, but if the lead ever stops early the followers are capped to
// the same round so the batch stays aligned, and the shortfall is
// visible to the caller.
func runLockstep(systems []*System, records int64) (int64, error) {
	for off := int64(0); off < records; {
		n := records - off
		if n > batchBlockRounds {
			n = batchBlockRounds
		}
		systems[0].bpPos, systems[0].dsPos, systems[0].l1Pos, systems[0].missPos = 0, 0, 0, 0
		ran, err := systems[0].runRounds(n)
		if err != nil {
			return off, err
		}
		for _, sys := range systems[1:] {
			sys.bpPos, sys.dsPos, sys.l1Pos, sys.missPos = 0, 0, 0, 0
			fran, err := sys.runRounds(ran)
			if err != nil {
				return off, err
			}
			if fran != ran {
				return off, fmt.Errorf("sim: batch member diverged: %d rounds vs lead's %d", fran, ran)
			}
		}
		off += ran
		if ran < n {
			return off, nil
		}
	}
	return records, nil
}

// checkStreamCompatible verifies that every spec consumes the same
// record stream as specs[0]: equal workload parameter sets (or group
// layouts), core counts, and warmup/measure windows.
func checkStreamCompatible(specs []RunSpec) error {
	ref := &specs[0]
	for i := 1; i < len(specs); i++ {
		s := &specs[i]
		switch {
		case s.Config.Cores != ref.Config.Cores:
			return fmt.Errorf("sim: batch spec %d: %d cores, spec 0 has %d", i, s.Config.Cores, ref.Config.Cores)
		case s.WarmupRecords != ref.WarmupRecords || s.MeasureRecords != ref.MeasureRecords:
			return fmt.Errorf("sim: batch spec %d: window %d+%d records, spec 0 has %d+%d",
				i, s.WarmupRecords, s.MeasureRecords, ref.WarmupRecords, ref.MeasureRecords)
		case !s.Sampling.scheduleEqual(ref.Sampling):
			return fmt.Errorf("sim: batch spec %d: sampling policy %+v differs from spec 0's %+v",
				i, s.Sampling, ref.Sampling)
		case s.Source != ref.Source:
			// Source is compared by interface identity: the engine hands
			// every member of a batch the same registered source value, and
			// two distinct sources cannot be assumed to generate the same
			// stream even with equal parameters.
			return fmt.Errorf("sim: batch spec %d: stream source differs from spec 0", i)
		case len(s.Groups) != len(ref.Groups):
			return fmt.Errorf("sim: batch spec %d: %d groups, spec 0 has %d", i, len(s.Groups), len(ref.Groups))
		}
		if ref.Source != nil {
			continue
		}
		if len(ref.Groups) == 0 {
			if s.Workload != ref.Workload {
				return fmt.Errorf("sim: batch spec %d: workload %q differs from spec 0's %q", i, s.Workload.Name, ref.Workload.Name)
			}
			continue
		}
		for gi := range ref.Groups {
			if s.GroupWorkloads[gi] != ref.GroupWorkloads[gi] {
				return fmt.Errorf("sim: batch spec %d group %d: workload differs from spec 0", i, gi)
			}
			if s.Groups[gi].Name != ref.Groups[gi].Name || len(s.Groups[gi].Cores) != len(ref.Groups[gi].Cores) {
				return fmt.Errorf("sim: batch spec %d group %d: layout differs from spec 0", i, gi)
			}
			for ci, c := range ref.Groups[gi].Cores {
				if s.Groups[gi].Cores[ci] != c {
					return fmt.Errorf("sim: batch spec %d group %d: core list differs from spec 0", i, gi)
				}
			}
		}
	}
	return nil
}
