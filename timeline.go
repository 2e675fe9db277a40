package shift

import (
	"encoding/json"
	"io"

	"shift/internal/noc"
	"shift/internal/sim"
)

// timelineLine is one line of a timeline: one measured interval of one
// design point on one workload.
type timelineLine struct {
	Workload string `json:"workload"`
	Design   string `json:"design"`
	Interval int    `json:"interval"`
	// HistReads counts the history-block reads on the mesh (message class
	// HistRead) and Hops the round-trip mesh hops by message class; the
	// mesh is shared, so both are the whole CMP's.
	HistReads int64            `json:"hist_reads"`
	Hops      map[string]int64 `json:"hops"`
	Cores     []timelineCore   `json:"cores"`
}

// timelineCore is one core's share of a timeline line.
type timelineCore struct {
	MPKI            float64 `json:"mpki"`
	PBHits          int64   `json:"pb_hits"`
	LatePBHits      int64   `json:"late_pb_hits"`
	Discards        int64   `json:"discards"`
	IndexLookups    int64   `json:"index_lookups"`
	IndexHits       int64   `json:"index_hits"`
	ForeignPointers int64   `json:"foreign_pointers"`
}

// newTimelineLine summarizes interval n of a run of workloadName.
func newTimelineLine(workloadName string, n int, r sim.Result) timelineLine {
	l := timelineLine{
		Workload:  WorkloadDisplayName(workloadName),
		Design:    r.Label,
		Interval:  n,
		HistReads: r.Traffic[noc.HistRead],
		Hops:      make(map[string]int64, noc.NumClasses),
		Cores:     make([]timelineCore, len(r.PerCore)),
	}
	for c, hops := range r.Hops {
		l.Hops[noc.MsgClass(c).String()] = hops
	}
	for c, cr := range r.PerCore {
		tc := timelineCore{
			PBHits:          cr.Fetch.PBHits,
			LatePBHits:      cr.Fetch.LatePBHits,
			Discards:        cr.Fetch.Discards,
			IndexLookups:    cr.Pf.IndexLookups,
			IndexHits:       cr.Pf.IndexHits,
			ForeignPointers: cr.Pf.ForeignPointers,
		}
		if cr.Instructions > 0 {
			tc.MPKI = float64(cr.Fetch.Misses) / float64(cr.Instructions) * 1000
		}
		l.Cores[c] = tc
	}
	return l
}

// WriteTimeline runs every design point on each of the options' workloads
// with a simulator probe attached and writes what the probe saw to w as
// NDJSON: one line per measured interval of each run, workload by
// workload and design by design, holding the interval's L1-I MPKI,
// prefetch-buffer hits (late ones too) and discards, and history-index
// lookups, hits and foreign pointers of every core, and the mesh's history
// reads and hops by message class. A sampled run reports its measured
// intervals; an exact run cuts its measurement window into intervals of
// 500 records a core. The runs are the engine's, unstored: their results
// are the same as without a probe.
func WriteTimeline(w io.Writer, o Options) error {
	o, err := o.normalize()
	if err != nil {
		return err
	}
	var specs []sim.RunSpec
	lines := make([][]timelineLine, len(o.Workloads)*len(designs))
	for _, name := range o.Workloads {
		for d := range designs {
			rs, err := o.config(name, Design(d)).spec()
			if err != nil {
				return err
			}
			i := len(specs)
			rs.Probe = func(n int, r sim.Result) {
				lines[i] = append(lines[i], newTimelineLine(name, n, r))
			}
			specs = append(specs, rs)
		}
	}
	if _, err := o.engine().runSpecs(specs); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for _, run := range lines {
		for _, l := range run {
			if err := enc.Encode(l); err != nil {
				return err
			}
		}
	}
	return nil
}
