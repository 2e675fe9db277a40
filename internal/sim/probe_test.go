package sim

import (
	"reflect"
	"testing"

	"shift/internal/core"
	"shift/internal/noc"
	"shift/internal/workload"
)

// probed attaches to spec a probe that collects its reports.
func probed(spec RunSpec, into *[]Result) RunSpec {
	spec.Probe = func(n int, r Result) {
		if n != len(*into) {
			panic("probe reports out of order")
		}
		*into = append(*into, r)
	}
	return spec
}

// TestProbeSeesWithoutSteering: a probe reports every measured interval in
// order — a sampled run's measured intervals, an exact run's measurement
// window in reporting intervals of defaultIntervalRecords rounds — and
// the reports add up to the run's own counters, while the run's result,
// standalone or as any member of a batch, is the one it has without a
// probe.
func TestProbeSeesWithoutSteering(t *testing.T) {
	for _, tc := range []struct {
		name      string
		p         Sampling
		intervals int
	}{
		{"exact", Sampling{}, 6000 / defaultIntervalRecords},
		{"sampled", testSampling(), -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			specs := windowed(batchDesigns()[:7], 2000, 6000, tc.p)
			if tc.p.Enabled() {
				specs = windowed(specs, 20000, 30000, tc.p)
			}
			plain, err := RunBatch(specs)
			if err != nil {
				t.Fatal(err)
			}
			for m := range specs {
				var solo, member []Result
				got, err := Run(probed(specs[m], &solo))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, plain[m]) {
					t.Errorf("%s with a probe differs from its run without", specs[m].Config.Prefetcher.Label)
				}
				// The probe rides on one member of the batch; every member's
				// result stands.
				withProbe := append([]RunSpec(nil), specs...)
				withProbe[m] = probed(specs[m], &member)
				batched, err := RunBatch(withProbe)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batched, plain) {
					t.Errorf("a batch with a probe on member %d differs from the batch without", m)
				}
				if !reflect.DeepEqual(member, solo) {
					t.Errorf("%s: the probe saw other intervals batched than alone", specs[m].Config.Prefetcher.Label)
				}
				want := tc.intervals
				if want < 0 {
					want = plain[m].Sampled.Intervals
				}
				if len(solo) != want {
					t.Fatalf("%s: %d reports, want %d", specs[m].Config.Prefetcher.Label, len(solo), want)
				}
				var sum Result
				for _, r := range solo {
					if r.Sampled != nil || r.Label != plain[m].Label {
						t.Fatalf("a report labelled %q, sampled %v", r.Label, r.Sampled != nil)
					}
					sum.Records += r.Records
					sum.Instructions += r.Instructions
					sum.Fetch = addFetch(sum.Fetch, r.Fetch)
					sum.Pf.Add(r.Pf)
					for c := 0; c < noc.NumClasses; c++ {
						sum.Traffic[c] += r.Traffic[c]
						sum.Hops[c] += r.Hops[c]
					}
				}
				whole := plain[m]
				if sum.Records != whole.Records || sum.Instructions != whole.Instructions || sum.Fetch != whole.Fetch ||
					sum.Pf != whole.Pf || sum.Traffic != whole.Traffic || sum.Hops != whole.Hops {
					t.Errorf("%s: the reports add up to %+v, the run reports %+v", specs[m].Config.Prefetcher.Label, sum, whole)
				}
			}
		})
	}
}

// TestProbeCountsIndexLookups: the history designs count their index
// lookups, the hits among them and, where one pointer per block is shared
// by every history (virtualized SHIFT under consolidation contends for
// it), the foreign pointers they meet; a design without a history counts
// none.
func TestProbeCountsIndexLookups(t *testing.T) {
	res := map[string]Result{}
	for _, spec := range batchDesigns()[:7] {
		r, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		res[spec.Config.Prefetcher.Label] = r
	}
	for name, r := range res {
		pf := r.Pf
		switch name {
		case "Baseline", "NextLine":
			if pf.IndexLookups != 0 {
				t.Errorf("%s looked its index up %d times", name, pf.IndexLookups)
			}
		default:
			if pf.IndexLookups == 0 || pf.IndexHits == 0 || pf.IndexHits+pf.ForeignPointers > pf.IndexLookups {
				t.Errorf("%s: %d lookups, %d hits, %d foreign pointers", name, pf.IndexLookups, pf.IndexHits, pf.ForeignPointers)
			}
		}
	}
	// Two groups of virtualized SHIFT over workloads that share block
	// addresses contend for one pointer per block.
	cfg := testConfig()
	cfg.Prefetcher = PrefetcherSpec{Kind: KindHistory, History: smallSHIFT(core.Virtualized)}
	other := testWorkload()
	other.Name, other.Seed = "sim-test-B", 99
	r, err := Run(RunSpec{
		Config:         cfg,
		Groups:         []core.Group{{Name: "A", Cores: []int{0, 1}}, {Name: "B", Cores: []int{2, 3}}},
		GroupWorkloads: []workload.Params{testWorkload(), other},
		WarmupRecords:  20000,
		MeasureRecords: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pf := r.Pf; pf.ForeignPointers == 0 || pf.IndexHits+pf.ForeignPointers > pf.IndexLookups {
		t.Errorf("consolidated SHIFT: %d lookups, %d hits, %d foreign pointers", pf.IndexLookups, pf.IndexHits, pf.ForeignPointers)
	}
}
