package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"shift"
)

// TestSpec runs the example on four cores with 6,000-record windows
// and checks its README: the document compiles to the ID the README
// prints, Figure 8 has one row for the spec with a speedup above 1x
// for every design, and editing the document changes its ID.
func TestSpec(t *testing.T) {
	o := shift.QuickOptions()
	o.Cores, o.WarmupRecords, o.MeasureRecords = 4, 6000, 6000
	var out strings.Builder
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	t.Log("\n" + text)
	const id = "spec:oltp-burst-scan@bcf85b1488e40d80"
	if !strings.HasPrefix(text, "compiled "+id+"\n") {
		t.Errorf("output does not start with the README's ID %s", id)
	}
	m := regexp.MustCompile(`(?m)^oltp-burst-scan +(.*)$`).FindStringSubmatch(text)
	if m == nil {
		t.Fatal("Figure 8 has no oltp-burst-scan row")
	}
	cols := strings.Fields(m[1])
	if len(cols) != len(shift.FigureDesigns()) {
		t.Fatalf("row has %d speedups, want one per design %v", len(cols), shift.FigureDesigns())
	}
	for i, c := range cols {
		if v, err := strconv.ParseFloat(c, 64); err != nil || v <= 1 {
			t.Errorf("%s speedup %s, want above 1x", shift.FigureDesigns()[i], c)
		}
	}

	edited, err := shift.LoadSpec(bytes.Replace(doc, []byte(`"loop_weight": 0.6`), []byte(`"loop_weight": 0.5`), 1))
	if err != nil {
		t.Fatal(err)
	}
	if edited == id || !strings.HasPrefix(edited, "spec:oltp-burst-scan@") {
		t.Errorf("edited document compiled to %s; want a new hash under the same name", edited)
	}
}
