package workload

import "fmt"

// Catalog returns the seven server workloads of the paper's Table I as
// synthetic-workload parameter sets. The knobs are calibrated (see
// EXPERIMENTS.md) so that the *relative* behaviour matches the paper:
//
//   - OLTP workloads have the largest instruction working sets and the
//     deepest stacks; OLTP Oracle is the largest (the paper reports SHIFT's
//     largest win over PIF_2K there).
//   - DSS queries run long loop-heavy scans: fewer request types, smaller
//     per-request instruction footprints, lower I-MPKI.
//   - Media streaming has a moderate footprint and regular request loops.
//   - Web frontend (SPECweb99/Apache) has a large footprint, many handler
//     types, and the highest trap/context-switch activity (the paper's
//     worst case for SHIFT LLC traffic).
//   - Web search has the smallest footprint of the suite.
//
// Catalog returns a fresh copy each call: callers may modify it.
func Catalog() []Params { return append([]Params(nil), catalog[:]...) }

// catalog is Table I, built once: ByName and Names read it in place.
var catalog = [...]Params{
	{
		Name: "OLTP DB2", Seed: 101,
		FootprintBytes:   2304 * 1024,
		OSFootprintBytes: 96 * 1024,
		RequestTypes:     12, RequestZipf: 0.6,
		FuncBlocksMean: 5, CallDepth: 7, CallSiteDensity: 0.32,
		VaryProb: 0.045, SkipProb: 0.25, CoreBias: 0.05,
		TrapRate: 0.0035, SchedProb: 0.25,
		LoopWeight: 0.42,
	},
	{
		Name: "OLTP Oracle", Seed: 102,
		FootprintBytes:   3328 * 1024,
		OSFootprintBytes: 128 * 1024,
		RequestTypes:     16, RequestZipf: 0.5,
		FuncBlocksMean: 5, CallDepth: 8, CallSiteDensity: 0.34,
		VaryProb: 0.05, SkipProb: 0.25, CoreBias: 0.06,
		TrapRate: 0.004, SchedProb: 0.3,
		LoopWeight: 0.44,
	},
	{
		Name: "DSS Qry 2", Seed: 103,
		FootprintBytes:   1152 * 1024,
		OSFootprintBytes: 64 * 1024,
		RequestTypes:     4, RequestZipf: 0.3,
		FuncBlocksMean: 6, CallDepth: 6, CallSiteDensity: 0.26,
		VaryProb: 0.03, SkipProb: 0.20, CoreBias: 0.035,
		TrapRate: 0.002, SchedProb: 0.12,
		LoopWeight: 0.52,
	},
	{
		Name: "DSS Qry 17", Seed: 104,
		FootprintBytes:   1408 * 1024,
		OSFootprintBytes: 64 * 1024,
		RequestTypes:     5, RequestZipf: 0.3,
		FuncBlocksMean: 6, CallDepth: 6, CallSiteDensity: 0.28,
		VaryProb: 0.035, SkipProb: 0.20, CoreBias: 0.035,
		TrapRate: 0.002, SchedProb: 0.12,
		LoopWeight: 0.50,
	},
	{
		Name: "Media Streaming", Seed: 105,
		FootprintBytes:   1024 * 1024,
		OSFootprintBytes: 96 * 1024,
		RequestTypes:     6, RequestZipf: 0.4,
		FuncBlocksMean: 5, CallDepth: 6, CallSiteDensity: 0.3,
		VaryProb: 0.04, SkipProb: 0.22, CoreBias: 0.04,
		TrapRate: 0.005, SchedProb: 0.35,
		LoopWeight: 0.46,
	},
	{
		Name: "Web Frontend", Seed: 106,
		FootprintBytes:   2176 * 1024,
		OSFootprintBytes: 128 * 1024,
		RequestTypes:     10, RequestZipf: 0.5,
		FuncBlocksMean: 5, CallDepth: 7, CallSiteDensity: 0.34,
		VaryProb: 0.055, SkipProb: 0.28, CoreBias: 0.05,
		TrapRate: 0.006, SchedProb: 0.45,
		LoopWeight: 0.40,
	},
	{
		Name: "Web Search", Seed: 107,
		FootprintBytes:   832 * 1024,
		OSFootprintBytes: 64 * 1024,
		RequestTypes:     8, RequestZipf: 0.6,
		FuncBlocksMean: 5, CallDepth: 6, CallSiteDensity: 0.28,
		VaryProb: 0.04, SkipProb: 0.22, CoreBias: 0.04,
		TrapRate: 0.003, SchedProb: 0.2,
		LoopWeight: 0.50,
	},
}

// Names returns the workload names in catalog order.
func Names() []string {
	names := make([]string, len(catalog))
	for i := range catalog {
		names[i] = catalog[i].Name
	}
	return names
}

// ByName returns the catalog entry with the given name.
func ByName(name string) (Params, error) {
	for i := range catalog {
		if catalog[i].Name == name {
			return catalog[i], nil
		}
	}
	return Params{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Scaled returns a copy of p with the footprint and request-type count
// scaled by f (useful for fast unit tests and sensitivity sweeps).
func Scaled(p Params, f float64) Params {
	q := p
	q.FootprintBytes = int(float64(p.FootprintBytes) * f)
	if q.FootprintBytes < 16*64 {
		q.FootprintBytes = 16 * 64
	}
	q.OSFootprintBytes = int(float64(p.OSFootprintBytes) * f)
	if q.OSFootprintBytes < 4*64 {
		q.OSFootprintBytes = 4 * 64
	}
	rt := int(float64(p.RequestTypes) * f)
	if rt < 1 {
		rt = 1
	}
	q.RequestTypes = rt
	return q
}
