package main

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"shift"
)

// TestConsolidation runs the example's Figure 10 on the default 16
// cores (four per workload) with 4,000-record windows and checks its README: one
// Figure 10 row and one detail line per consolidated workload, SHIFT
// above 1x in every group, and virtualizing the history in the LLC
// costing SHIFT something against dedicated-storage ZeroLat-SHIFT.
func TestConsolidation(t *testing.T) {
	o := shift.DefaultOptions()
	o.WarmupRecords, o.MeasureRecords = 4000, 4000
	var out strings.Builder
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	t.Log("\n" + text)
	for _, wl := range shift.ConsolidationWorkloads() {
		if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(wl) + `\s+[0-9.]+`).MatchString(text) {
			t.Errorf("Figure 10 has no row for %s", wl)
		}
		m := regexp.MustCompile(regexp.QuoteMeta(wl) + `\s+SHIFT ([0-9.]+)x  ZeroLat ([0-9.]+)x  \(virtualization cost (-?[0-9.]+)%\)`).FindStringSubmatch(text)
		if m == nil {
			t.Errorf("no detail line for %s", wl)
			continue
		}
		var v [3]float64
		for i := range v {
			v[i], _ = strconv.ParseFloat(m[i+1], 64)
		}
		if v[0] <= 1 {
			t.Errorf("%s: SHIFT %vx, want above 1x", wl, v[0])
		}
		if v[2] <= 0 {
			t.Errorf("%s: SHIFT %vx against ZeroLat-SHIFT %vx: virtualization cost %v%%, want above 0", wl, v[0], v[1], v[2])
		}
	}
	if n := strings.Count(text, "virtualization cost"); n != len(shift.ConsolidationWorkloads()) {
		t.Errorf("%d detail lines, want %d", n, len(shift.ConsolidationWorkloads()))
	}
}
