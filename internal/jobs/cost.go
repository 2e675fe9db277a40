package jobs

import "shift"

// functionalCostFraction is the estimated per-record cost of functional
// fast-forwarding relative to detailed simulation. The measured sampled
// Figure-7 sweep runs ~5x faster at period 40 (BenchmarkSampledFigure7), which
// puts the functional path at roughly a tenth of the detailed path per
// record; the exact value only shifts SJF ordering between sampled
// policies, never the sampled-before-exact preference.
const functionalCostFraction = 0.1

// estimateCost returns the estimated execution cost of one cell in
// detailed-record-equivalents: the number of (core × record) steps the
// simulator will take, with functionally fast-forwarded records
// weighted at functionalCostFraction. The scheduler uses it for
// shortest-job-first ordering, so sampled probe cells (whose measure
// window is mostly fast-forwarded) are preferred over exact
// confirmations of the same window. It is a heuristic for ordering
// only — it never affects results.
func estimateCost(cfg shift.Config) float64 {
	cfg = cfg.Resolved()
	warm, meas := float64(cfg.WarmupRecords), float64(cfg.MeasureRecords)
	cost := warm + meas
	if p := cfg.Sampling; p.Enabled() {
		interval := float64(p.IntervalRecords)
		// One chunk = Period×interval records, of which interval×(1+wf)
		// run detailed (measured interval + detailed warmup prefix) and
		// the rest fast-forward functionally. The spec warmup is fully
		// functional in sampled mode.
		detailed := interval * (1 + p.WarmupFraction) / (float64(p.Period) * interval)
		if detailed > 1 {
			detailed = 1
		}
		cost = warm*functionalCostFraction +
			meas*(detailed+(1-detailed)*functionalCostFraction)
	}
	return cost * float64(cfg.Cores)
}
