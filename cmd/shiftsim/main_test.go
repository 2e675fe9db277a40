package main

import (
	"strings"
	"testing"

	"shift"
)

// tinyOpts keeps CLI-dispatch tests fast.
func tinyOpts() shift.Options {
	o := shift.QuickOptions()
	o.Workloads = []string{"Web Search"}
	o.Cores = 4
	o.WarmupRecords = 6000
	o.MeasureRecords = 6000
	return o
}

func TestRunOneDispatch(t *testing.T) {
	cases := []struct {
		name string
		want string
	}{
		{"tableI", "Table I"},
		{"storage", "Storage"},
		{"fig3", "Figure 3"},
		{"fig8", "Figure 8"},
		{"fig9", "Figure 9"},
		{"power", "5.7"},
		{"generator", "6.1"},
	}
	for _, c := range cases {
		out, err := runOne(c.name, tinyOpts(), nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("%s output missing %q", c.name, c.want)
		}
	}
}

// TestRunOneFig6Sizes: -sizes reaches Figure 6 by its name and by its
// bare number, and replaces the default sweep.
func TestRunOneFig6Sizes(t *testing.T) {
	sizes := []int{1024, 4096}
	fig, err := shift.RunFigure6(tinyOpts(), sizes)
	if err != nil {
		t.Fatal(err)
	}
	want := fig.String()
	for _, name := range []string{"fig6", "6"} {
		out, err := runOne(name, tinyOpts(), sizes)
		if err != nil {
			t.Fatal(err)
		}
		if out != want {
			t.Errorf("%s with sizes %v rendered\n%s\nwant\n%s", name, sizes, out, want)
		}
	}
}

func TestRunOneUnknown(t *testing.T) {
	if _, err := runOne("nope", tinyOpts(), nil); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunOneBadWorkload locks the failure path: a driver error must
// come back as an error, not a panic from rendering a typed-nil figure.
func TestRunOneBadWorkload(t *testing.T) {
	o := tinyOpts()
	o.Workloads = []string{"No Such Workload"}
	for _, name := range []string{"fig1", "fig7", "fig8", "sensitivity"} {
		if _, err := runOne(name, o, nil); err == nil {
			t.Errorf("%s: bad workload accepted", name)
		}
	}
}

// TestRunOneSampled: the -sample flags thread through the shared
// dispatch — a sampled figure renders with the same shape as exact.
func TestRunOneSampled(t *testing.T) {
	o := tinyOpts()
	o.MeasureRecords = 10000
	o.Sampling = shift.Sampling{Period: 4, IntervalRecords: 500}
	out, err := runOne("fig7", o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 7") {
		t.Errorf("sampled fig7 output missing header:\n%s", out)
	}
	o.Sampling.WarmupFraction = 1.5
	if _, err := runOne("fig7", o, nil); err == nil {
		t.Error("invalid sampling policy accepted")
	}
}
