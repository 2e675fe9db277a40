package shift

import (
	"fmt"

	"shift/internal/sim"
)

// RunBatch executes several configurations that share one trace stream
// (equal StreamKeys — same workload, core count, and warmup/measure
// window) in a single pass: the first member generates the per-core
// record streams and every other member steps off its log in lockstep,
// so the design-independent per-record work (trace generation, branch
// prediction, background data traffic, the L1-I probe) is paid once per
// record instead of once per member per record wherever the members are
// configured alike. Each member observes exactly the per-core record order of a
// standalone Run, so out[i] is bit-identical to Run(cfgs[i]).
//
// Configurations whose StreamKeys differ are rejected. The experiment
// engine calls this for every cell it simulates, grouping grid cells
// that share a stream; call it directly when running a hand-built design
// comparison.
//
// A batch of one is Run: the one member reads its streams directly (with
// no follower there is no log to publish), and a bad configuration fails
// with its own error, not labelled with a batch position.
func RunBatch(cfgs []Config) ([]RunResult, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	specs := make([]sim.RunSpec, len(cfgs))
	for i := range cfgs {
		spec, err := cfgs[i].spec()
		if err != nil {
			if len(cfgs) > 1 {
				err = fmt.Errorf("shift: batch config %d: %w", i, err)
			}
			return nil, err
		}
		specs[i] = spec
	}
	rs, err := sim.RunBatch(specs)
	if err != nil {
		return nil, err
	}
	out := make([]RunResult, len(rs))
	for i := range rs {
		out[i] = fromSim(rs[i], cfgs[i].Workload)
		out[i].Groups = groupRows(specs[i].Groups, rs[i])
	}
	return out, nil
}
