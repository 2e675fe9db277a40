package workload

import (
	"fmt"

	"shift/internal/trace"
)

// Source is a factory of per-core instruction streams — the abstraction
// that lets the simulator consume streams that are not a single
// synthetic Workload: phase sequences that switch parameter sets on a
// record schedule (Phased) and replays of externally recorded traces
// (Replay).
//
// A Source must be deterministic and safe for concurrent use: every
// NewCoreReader(core) call returns a fresh reader positioned at the
// start of core's stream, and two readers for the same core always
// produce identical record sequences. The batched execution path
// (sim.RunBatch) relies on this to fan one generated stream out to many
// consumers and still match standalone runs bit for bit, and the
// experiment engine relies on it to re-run a cell from a memoized
// source at any time.
type Source interface {
	// NewCoreReader returns a new reader over core's stream, starting
	// from the first record.
	NewCoreReader(core int) (trace.Reader, error)
}

// Replay is a Source serving pre-recorded traces: core i replays
// recording i%len(recordings), and its stream ends when the recording
// does. Replay readers implement trace.Supplier, so a recording shorter
// than a simulation's warmup+measure window is rejected up front with a
// typed *sim.StreamShortError instead of silently truncating the run.
type Replay struct {
	traces [][]trace.Record
}

// NewReplay builds a replay source over the given recordings. The
// record slices are shared, not copied; callers must not mutate them
// afterwards.
func NewReplay(traces [][]trace.Record) (*Replay, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("workload: replay source with no recordings")
	}
	for i, t := range traces {
		if len(t) == 0 {
			return nil, fmt.Errorf("workload: replay recording %d is empty", i)
		}
	}
	return &Replay{traces: traces}, nil
}

// NewCoreReader implements Source.
func (r *Replay) NewCoreReader(core int) (trace.Reader, error) {
	if core < 0 {
		return nil, fmt.Errorf("workload: replay core %d < 0", core)
	}
	return trace.NewSliceReader(r.traces[core%len(r.traces)]), nil
}
