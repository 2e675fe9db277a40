package main

import (
	"fmt"
	"os"
)

// selfcheck answers "would two sets of runs of the same code agree
// within the benchmark's own bounds?" — the question the driver asks
// before it accepts the benchmark. It runs two sets, A and B, of n full
// runs each, interleaved A,B,A,B,… so that slow drift of the host lands
// on both, and compares their medians per (workload, metric). Pair i
// uses bench seed seed+i on both sides, as the driver varies the seed
// from run to run. It returns false if any disagreement, or any set's
// own spread, exceeds the metric's bound.
func (h *harness) selfcheck(selected []workloadDef, seed int64, seconds, n int) bool {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for side := 0; side < 2; side++ {
			for _, def := range selected {
				res := h.runUntraced(def, seed+int64(i), seconds)
				fmt.Fprintf(os.Stderr, "selfcheck: pair %d/%d set %c %s done (failed cells %d)\n", i+1, n, 'A'+side, def.Name, res.Failed)
				if !res.Correct {
					res.print(os.Stdout)
					return false
				}
				for _, m := range endToEnd {
					k := key{def.Name, m.Name}
					sets[side][k] = append(sets[side][k], res.values[m.Name])
				}
			}
		}
	}

	ok := true
	fmt.Printf("%-14s %-12s %12s %12s %9s %9s %9s %7s\n", "workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound")
	for _, def := range selected {
		for _, m := range endToEnd {
			k := key{def.Name, m.Name}
			a, b := sets[0][k], sets[1][k]
			worse := worsening(median(a), median(b), m.Better)
			if w := worsening(median(b), median(a), m.Better); w > worse {
				worse = w // A and B are the same code: either order counts
			}
			verdict := ""
			// setup_s is held to its bound on the medians only, as the
			// driver does; the others on their spread as well.
			if worse > m.Bound || (m.Name != "setup_s" && (iqrShare(a) > m.Bound || iqrShare(b) > m.Bound)) {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-14s %-12s %12.4f %12.4f %8.2f%% %8.2f%% %8.2f%% %6.0f%%%s\n",
				def.Name, m.Name, median(a), median(b), 100*worse, 100*iqrShare(a), 100*iqrShare(b), 100*m.Bound, verdict)
		}
	}
	return ok
}
