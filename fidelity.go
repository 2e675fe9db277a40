package shift

import (
	"fmt"
	"slices"
)

// rowKind separates what the reproduction is fitted to — Table I, the
// storage arithmetic, Figures 1 and 3, which characterize the paper's
// system and workloads — from what it predicts about the designs.
type rowKind string

const input, prediction rowKind = "input", "prediction"

// comparison is how a reproduced value is held against a row's value.
// The rules were fixed before any reproduced value was read.
type comparison int

const (
	gain   comparison = iota // a speedup s: s-1 within ±tol (relative) of the paper's gain
	points                   // a percentage within ±tol points
	above                    // a claim ">value", as stated
	below                    // a claim "<value", as stated
	exact                    // equal at the paper's printed precision, whose unit is tol
	holds                    // a qualitative claim: 1 when it holds
)

// paperRow is one claim of the paper: its text as the drivers print it
// and where the paper states it (source), and its value, which cmp holds
// the reproduction to within tol.
type paperRow struct {
	id, figure, metric, source, text string
	kind                             rowKind
	cmp                              comparison
	value, tol                       float64
}

// paperRows is the one place outside the tests where a value from the
// paper is written: the drivers' "(paper: …)" notes, the storage report's
// Paper column and the power budget render from it, and TestFidelity
// applies the comparisons to generate FIDELITY.md.
var paperRows = []paperRow{
	{"tableI.cores", "Table I", "cores", "Table I", "16", input, exact, 16, 1},
	{"tableI.l1i", "Table I", "L1-I size (KB)", "Table I", "32 KB", input, exact, 32, 1},
	{"tableI.llc", "Table I", "LLC per core (KB)", "Table I", "512 KB", input, exact, 512, 1},
	{"tableI.mem", "Table I", "memory latency (ns)", "Table I", "45 ns", input, exact, 45, 1},
	{"sizing.record_bits", "Sizing", "bits per history record", "§4.2", "41 bits", input, exact, 41, 1},
	{"sizing.records_per_block", "Sizing", "records per 64B block", "§4.2", "12", input, exact, 12, 1},
	{"sizing.pif_history_kb", "Sizing", "PIF_32K history (KB)", "§5.1", "164 KB", input, exact, 164, 1},
	{"sizing.pif_index_kb", "Sizing", "PIF_32K index (KB)", "§5.1", "49 KB", input, exact, 49, 1},
	{"storage.pif32k_kb", "Storage", "PIF_32K per-core storage (KB)", "§5.1", "213 KB", input, exact, 213, 1},
	{"storage.pif32k_mm2", "Storage", "PIF_32K per-core area (mm^2)", "§5.6", "0.9 mm^2", input, exact, 0.9, 0.1},
	{"storage.pif32k_total_mm2", "Storage", "PIF_32K aggregate area (mm^2)", "§5.6", "14.4 mm^2", input, exact, 14.4, 0.1},
	{"storage.pif2k_kb", "Storage", "PIF_2K per-core storage (KB)", "§5.1", "~13 KB", input, exact, 13, 1},
	{"storage.shift_history_kb", "Storage", "SHIFT history in LLC (KB)", "§4.2", "171 KB", input, exact, 171, 1},
	{"storage.shift_history_lines", "Storage", "SHIFT history in LLC (lines)", "§4.2", "2,731 lines", input, exact, 2731, 1},
	{"storage.shift_index_kb", "Storage", "SHIFT index in LLC tags (KB)", "§4.2", "240 KB", input, exact, 240, 1},
	{"storage.shift_mm2", "Storage", "SHIFT total area (mm^2)", "§5.6", "0.96 mm^2", input, exact, 0.96, 0.01},
	{"storage.area_ratio", "Storage", "PIF_32K/SHIFT area ratio", "§5.6", "~14x", input, exact, 14, 1},
	{"storage.virtualized_pif_mb", "Storage", "virtualized per-core PIF (MB of LLC)", "§6.2", "2.7 MB", input, exact, 2.7, 0.1},
	{"fig1.perfect", "Fig 1", "perfect-I geo-mean speedup", "Fig 1", "~1.31", input, gain, 1.31, 0.15},
	{"fig3.mean", "Fig 3", "mean common-stream accesses (%)", "Fig 3", ">90%", input, above, 90, 0},
	{"fig3.max", "Fig 3", "best workload's common-stream accesses (%)", "Fig 3", "up to 96%", input, points, 96, 5},
	{"fig6.dominance", "Fig 6", "SHIFT above PIF at every default size", "Fig 6", "yes", prediction, holds, 1, 0},
	{"fig7.shift.covered", "Fig 7", "SHIFT misses covered (%)", "Fig 7", "81%", prediction, points, 81, 5},
	{"fig7.shift.over", "Fig 7", "SHIFT overpredicted (%)", "Fig 7", "16%", prediction, points, 16, 5},
	{"fig7.pif32k.covered", "Fig 7", "PIF_32K misses covered (%)", "Fig 7", "92%", prediction, points, 92, 5},
	{"fig7.pif32k.over", "Fig 7", "PIF_32K overpredicted (%)", "Fig 7", "13%", prediction, points, 13, 5},
	{"fig7.pif2k.covered", "Fig 7", "PIF_2K misses covered (%)", "Fig 7", "53%", prediction, points, 53, 5},
	{"fig7.pif2k.over", "Fig 7", "PIF_2K overpredicted (%)", "Fig 7", "20%", prediction, points, 20, 5},
	{"fig8.nextline", "Fig 8", "NextLine geo-mean speedup", "Fig 8", "1.09", prediction, gain, 1.09, 0.15},
	{"fig8.pif2k", "Fig 8", "PIF_2K geo-mean speedup", "Fig 8", "~1.10", prediction, gain, 1.10, 0.15},
	{"fig8.pif32k", "Fig 8", "PIF_32K geo-mean speedup", "Fig 8", "1.21", prediction, gain, 1.21, 0.15},
	{"fig8.zerolat", "Fig 8", "ZeroLat-SHIFT geo-mean speedup", "Fig 8", "1.20", prediction, gain, 1.20, 0.15},
	{"fig8.shift", "Fig 8", "SHIFT geo-mean speedup", "Fig 8", "1.19", prediction, gain, 1.19, 0.15},
	{"fig8.order", "Fig 8", "geo-mean ordering", "Fig 8", "NextLine < PIF_2K < SHIFT <= ZeroLat-SHIFT <= PIF_32K", prediction, holds, 1, 0},
	{"fig8.retained", "Fig 8", "SHIFT's share of PIF_32K's benefit (%)", "Fig 8", ">90%", prediction, above, 90, 0},
	{"fig8.max", "Fig 8", "best workload's SHIFT speedup", "Fig 8", "up to 1.42x", prediction, gain, 1.42, 0.15},
	{"fig9.log", "Fig 9", "history log traffic (% of demand)", "Fig 9", "~6%", prediction, points, 6, 5},
	{"fig9.discard", "Fig 9", "discard traffic (% of demand)", "Fig 9", "7%", prediction, points, 7, 5},
	{"fig9.worst", "Fig 9", "worst workload", "Fig 9", "web frontend", prediction, holds, 1, 0},
	{"fig9.worst_total", "Fig 9", "worst workload's traffic (% of demand)", "Fig 9", "~26%", prediction, points, 26, 5},
	{"fig10.shift", "Fig 10", "SHIFT geo-mean speedup", "Fig 10", "1.22", prediction, gain, 1.22, 0.15},
	{"fig10.zerolat", "Fig 10", "ZeroLat-SHIFT geo-mean speedup", "Fig 10", "1.25", prediction, gain, 1.25, 0.15},
	{"fig10.shift_vs_pif32k", "Fig 10", "SHIFT's share of PIF_32K's performance (%)", "Fig 10", "95%", prediction, points, 95, 5},
	{"pd.fat", "PD", "SHIFT PD gain over PIF_32K, Fat-OoO (%)", "§5.6", "+2%", prediction, points, 2, 5},
	{"pd.lean", "PD", "SHIFT PD gain over PIF_32K, Lean-OoO (%)", "§5.6", "+16%", prediction, points, 16, 5},
	{"pd.io", "PD", "SHIFT PD gain over PIF_32K, Lean-IO (%)", "§5.6", "+59%", prediction, points, 59, 5},
	{"pd.order", "PD", "PD gain grows as the core gets leaner", "§5.6", "Fat-OoO < Lean-OoO < Lean-IO", prediction, holds, 1, 0},
	{"pd.pif32k_io", "PD", "PIF_32K PD on Lean-IO", "Fig 2", "<1 (PD loss)", prediction, below, 1, 0},
	{"power.max", "Power", "worst-case extra power (mW)", "§5.7", "150mW", prediction, below, 150, 0},
	{"power.per_core", "Power", "worst case per Lean-IO core (%)", "§5.7", "<2%", prediction, below, 2, 0},
	{"sec4.1.span", "§4.1", "best region span", "§4.1", "8", prediction, exact, 8, 1},
	{"sec4.1.lookahead", "§4.1", "best lookahead", "§4.1", "5", prediction, exact, 5, 1},
	{"sec4.1.capacity", "§4.1", "best SAB capacity", "§4.1", "12", prediction, exact, 12, 1},
	{"sec4.1.streams", "§4.1", "best stream count", "§4.1", "4", prediction, exact, 4, 1},
	{"sec6.1.spread", "§6.1", "speedup spread across generator cores (%)", "§6.1", `"no sensitivity"`, prediction, points, 0, 5},
}

// paper returns the row with the given id; an unknown id, a programming
// error, panics.
func paper(id string) paperRow {
	return paperRows[slices.IndexFunc(paperRows, func(r paperRow) bool { return r.id == id })]
}

// paperNote is how a driver cites the paper: format over the texts of
// rows ids, in parentheses after "paper: ".
func paperNote(format string, ids ...string) string {
	texts := make([]any, len(ids))
	for i, id := range ids {
		texts[i] = paper(id).text
	}
	return "(paper: " + fmt.Sprintf(format, texts...) + ")"
}

// papers cites row id in running text.
func papers(id string) string { return "the paper's " + paper(id).text }
