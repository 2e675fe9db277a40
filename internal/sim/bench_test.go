package sim

import (
	"testing"
	"time"

	"shift/internal/workload"
)

// BenchmarkDetailedStep is the in-repo counterpart of the ledger's
// sim.step_ns_per_rec.* rows: ns per record of detailed stepping, one
// lockstep block (8192 rounds) per iteration, on the sweep_exact geometry
// — the 16-core Table I system over "OLTP Oracle", one System alone —
// after three blocks of warm-up, continuing the stream from iteration to
// iteration. Run it with -cpu 1.
func BenchmarkDetailedStep(b *testing.B) {
	for _, d := range designSpecs() {
		b.Run(d.Label, func(b *testing.B) {
			p, err := workload.ByName("OLTP Oracle")
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Prefetcher = d
			// The window is what the benchmark steps, three warm-up blocks
			// and b.N timed ones: a history holds only its window's records.
			bt, err := newBatch([]RunSpec{{Config: cfg, Workload: p, WarmupRecords: 3 * batchBlockRounds, MeasureRecords: int64(b.N) * batchBlockRounds}})
			if err != nil {
				b.Fatal(err)
			}
			if err := bt.enter(0); err != nil {
				b.Fatal(err)
			}
			blk := cutBlocks([]segment{{rounds: batchBlockRounds}}, 0)[0]
			step := func() {
				if ran, err := bt.runBlock(0, blk); err != nil || ran != batchBlockRounds {
					b.Fatalf("ran %d of %d rounds, err %v", ran, batchBlockRounds, err)
				}
			}
			for i := 0; i < 3; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*batchBlockRounds*float64(cfg.Cores)), "ns/record")
		})
	}
}

// The functional-path benchmarks are the in-repo counterpart of the
// benchmark ledger's sim.warm_ns_per_rec.* rows, split the way a batch
// splits the work: what the lead of a batch pays per fast-forwarded
// record (stream generation, predictor, L1-I, the log with its region
// lists, and its own LLC probes) and what each follower adds on top, by
// design. One iteration is one functional gap of the sweep_sampled
// workload — Period 40 × 500 records at WarmupFraction 0.3: 16278
// far-zone rounds, 3072 near-zone — on the 16-core Table I system over
// "OLTP Oracle", continuing the stream from iteration to iteration. Run
// them with -cpu 1.

// benchFunctional times member (0: the lead, 1: the follower) of a
// Baseline-led batch of two through b.N gaps.
func benchFunctional(b *testing.B, follower PrefetcherSpec, member int) {
	p, err := workload.ByName("OLTP Oracle")
	if err != nil {
		b.Fatal(err)
	}
	// The sweep_sampled window and policy: its blocks are full-length, so
	// the log holds one, and it has functional pieces, so a lead with
	// followers that compact publishes region lists.
	lead := RunSpec{Config: DefaultConfig(), Workload: p, WarmupRecords: 20000, MeasureRecords: 200000,
		Sampling: Sampling{Period: 40, IntervalRecords: 500, WarmupFraction: 0.3}}
	fol := lead
	fol.Config.Prefetcher = follower
	bt, err := newBatch([]RunSpec{lead, fol})
	if err != nil {
		b.Fatal(err)
	}
	for m := range bt.systems {
		if err := bt.enter(m); err != nil {
			b.Fatal(err)
		}
	}
	const gapRounds = 40*500 - 500 - 150
	gap := cutBlocks(appendFunctional(nil, gapRounds), 0)
	var timed time.Duration
	walk := func() {
		for _, blk := range gap {
			for m := range bt.systems {
				start := time.Now()
				if ran, err := bt.runBlock(m, blk); err != nil || ran != blockRounds(blk) {
					b.Fatalf("member %d: ran %d of %d rounds, err %v", m, ran, blockRounds(blk), err)
				}
				if m == member {
					timed += time.Since(start)
				}
			}
		}
	}
	walk() // fill the caches and grow the reusable buffers
	timed = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walk()
	}
	b.ReportMetric(float64(timed.Nanoseconds())/(float64(b.N)*gapRounds*float64(lead.Config.Cores)), "ns/record")
}

// BenchmarkFunctionalLead times a lead whose follower compacts, as the
// leads of the sweep_sampled grid are: it also advances the log's region
// builders and writes the region lists.
func BenchmarkFunctionalLead(b *testing.B) {
	benchFunctional(b, designSpecs()[dPIF32K], 0)
}

func BenchmarkFunctionalFollower(b *testing.B) {
	all := designSpecs()
	for _, d := range []PrefetcherSpec{all[dNextLine], all[dPIF32K], all[dSHIFT]} {
		b.Run(d.Label, func(b *testing.B) { benchFunctional(b, d, 1) })
	}
}
