package main

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"shift"
)

// TestQuickstart runs the example on four cores with 8,000-record
// windows and checks what its README says the numbers show: the
// baseline stalls on instruction fetch, SHIFT eliminates most of its
// misses, the generator core's history costs LLC reads and writes, and
// the workload speeds up.
func TestQuickstart(t *testing.T) {
	cfg := shift.DefaultRunConfig("OLTP Oracle", shift.DesignBaseline)
	cfg.Cores, cfg.WarmupRecords, cfg.MeasureRecords = 4, 8000, 8000
	var out strings.Builder
	if err := run(&out, cfg); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	t.Log("\n" + text)
	// num reads the first number after label (and its colon).
	num := func(label string) float64 {
		t.Helper()
		m := regexp.MustCompile(regexp.QuoteMeta(label) + `:\s+([0-9.]+)`).FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("output has no %q line", label)
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if !strings.HasPrefix(text, "OLTP Oracle on 4 Lean-OoO cores") {
		t.Errorf("header does not name the workload, core count and core type: %q", strings.SplitN(text, "\n", 2)[0])
	}
	if v := num("L1-I MPKI"); v <= 0 {
		t.Errorf("baseline L1-I MPKI = %v, want > 0", v)
	}
	if v := num("fetch-stall fraction"); v <= 0 || v >= 100 {
		t.Errorf("fetch-stall fraction = %v%%, want within (0, 100)", v)
	}
	if v := num("misses eliminated"); v <= 50 {
		t.Errorf("SHIFT eliminated %v%% of the misses, want most of them (> 50%%)", v)
	}
	if v := num("history records"); v <= 0 {
		t.Errorf("generator core wrote %v history records, want > 0", v)
	}
	m := regexp.MustCompile(`LLC history traffic:\s+(\d+) reads, (\d+) writes`).FindStringSubmatch(text)
	if m == nil || m[1] == "0" || m[2] == "0" {
		t.Errorf("LLC history traffic %q, want reads and writes", m)
	}
	if v := num("speedup"); v <= 1 {
		t.Errorf("SHIFT speedup %vx, want > 1", v)
	}
}
