package workload

import (
	"fmt"

	"shift/internal/trace"
)

// Phase is one element of a phase-sequenced workload: run Params for
// Records records per core, then hand over to the next phase.
type Phase struct {
	// Params is the workload generating this phase's stream.
	Params Params
	// Records is the phase length in records per core (>= 1).
	Records int64
}

// Phased is a Source that cycles through a sequence of workload phases,
// modelling time-varying instruction footprints (a batch window cutting
// into an OLTP day, a cache-warming burst before steady state, ...).
//
// Each phase keeps a persistent executor per core: when the sequence
// wraps around, a phase's stream resumes exactly where it left off
// rather than restarting, so revisited phases re-touch their footprint
// the way a real recurring workload does. The interleaved stream is a
// pure function of the phase sequence and the per-phase seeds —
// deterministic per core, independent of when or how often readers are
// created.
type Phased struct {
	phases []Phase
	ws     []*Workload
}

// NewPhased builds the phased source, building (or reusing, via the
// process-wide graph cache) every phase's static program up front.
func NewPhased(phases []Phase) (*Phased, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: phased source with no phases")
	}
	p := &Phased{phases: append([]Phase(nil), phases...), ws: make([]*Workload, len(phases))}
	for i, ph := range phases {
		if ph.Records < 1 {
			return nil, fmt.Errorf("workload: phase %d: Records %d < 1", i, ph.Records)
		}
		w, err := Cached(ph.Params)
		if err != nil {
			return nil, fmt.Errorf("workload: phase %d: %w", i, err)
		}
		p.ws[i] = w
	}
	return p, nil
}

// NewCoreReader implements Source.
func (p *Phased) NewCoreReader(core int) (trace.Reader, error) {
	rs := make([]*CoreReader, len(p.ws))
	for i, w := range p.ws {
		rs[i] = w.NewCoreReader(core)
	}
	return &phasedReader{src: p, readers: rs, left: p.phases[0].Records}, nil
}

// phasedReader interleaves the persistent per-phase executors of one
// core on the phase schedule. Like CoreReader it never returns io.EOF:
// the sequence cycles and every phase's stream is unbounded.
type phasedReader struct {
	src     *Phased
	readers []*CoreReader
	idx     int
	left    int64
}

// Next implements trace.Reader; the error is always nil.
func (r *phasedReader) Next() (trace.Record, error) {
	if r.left == 0 {
		r.idx++
		if r.idx == len(r.readers) {
			r.idx = 0
		}
		r.left = r.src.phases[r.idx].Records
	}
	r.left--
	return r.readers[r.idx].Next()
}

var (
	_ Source = (*Phased)(nil)
	_ Source = (*Replay)(nil)
)
