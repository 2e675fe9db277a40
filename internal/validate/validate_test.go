package validate_test

import (
	"errors"
	"testing"

	"shift"
	"shift/internal/validate"
)

// ok is a cell that passes every check: 16 cores, a sampled 1,000-record
// window that holds exactly two sampling chunks.
func ok() shift.Config {
	return shift.Config{
		Workload:       "Web Search",
		Design:         shift.DesignPIF2K,
		Cores:          16,
		HistEntries:    8192,
		ElimProb:       0.5,
		WarmupRecords:  1000,
		MeasureRecords: 1000,
		Seed:           1,
		Sampling: shift.Sampling{
			Period:          10,
			IntervalRecords: 50,
			WarmupFraction:  0.25,
			Confidence:      0.95,
		},
	}
}

// field returns the wire field err names, or "" when err is nil or names
// none.
func field(t *testing.T, err error) string {
	t.Helper()
	if err == nil {
		return ""
	}
	var fe *validate.FieldError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v names no field", err)
	}
	if fe.Msg == "" {
		t.Errorf("error %v has an empty message", err)
	}
	return fe.Field
}

// TestCellCheck enumerates every refusal of a cell's ranges, with the
// canonical field name each one must carry. The rules are the simulator's
// (shift.Config.Validate: the history-capacity bound, then
// sim.RunSpec.Validate), and every front end calls them — the CLI through
// shift.Options, shiftd's cells and figure queries, a cluster worker — so
// each case is checked through Config.Validate and through RunBatch, which
// must name the same field. Zero cores, like a zero window, means the
// default, so the lowest refused core count is -1.
func TestCellCheck(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*shift.Config)
		field  string
	}{
		{"cores low", func(c *shift.Config) { c.Cores = -1 }, "cores"},
		{"cores high", func(c *shift.Config) { c.Cores = 17 }, "cores"},
		{"cores negative", func(c *shift.Config) { c.Cores = -3 }, "cores"},
		{"core type high", func(c *shift.Config) { c.CoreType = 7 }, "core_type"},
		{"core type negative", func(c *shift.Config) { c.CoreType = -1 }, "core_type"},
		{"hist entries", func(c *shift.Config) { c.HistEntries = -1 }, "hist_entries"},
		{"hist entries huge", func(c *shift.Config) { c.HistEntries = 1<<20 + 1 }, "hist_entries"},
		{"elim low", func(c *shift.Config) { c.ElimProb = -0.1 }, "elim_prob"},
		{"elim high", func(c *shift.Config) { c.ElimProb = 1.1 }, "elim_prob"},
		{"warmup", func(c *shift.Config) { c.WarmupRecords = -1 }, "warmup_records"},
		{"measure", func(c *shift.Config) { c.MeasureRecords = -1 }, "measure_records"},
		{"warmup huge", func(c *shift.Config) { c.WarmupRecords = 1 << 30 }, "warmup_records"},
		{"measure huge", func(c *shift.Config) { c.MeasureRecords = 1 << 30 }, "measure_records"},
		{"window huge", func(c *shift.Config) { c.WarmupRecords, c.MeasureRecords = 1<<29, 1<<29 }, "measure_records"},
		{"window overflows", func(c *shift.Config) { c.WarmupRecords, c.MeasureRecords = 1<<62, 1<<62 }, "warmup_records"},
		{"sample period", func(c *shift.Config) { c.Sampling.Period = -1 }, "sample_period"},
		{"sample interval", func(c *shift.Config) { c.Sampling.IntervalRecords = -1 }, "sample_interval"},
		{"sample warmup low", func(c *shift.Config) { c.Sampling.WarmupFraction = -0.1 }, "sample_warmup"},
		{"sample warmup high", func(c *shift.Config) { c.Sampling.WarmupFraction = 1 }, "sample_warmup"},
		{"sample confidence", func(c *shift.Config) { c.Sampling.Confidence = 0.8 }, "sample_confidence"},
		{"sampled window", func(c *shift.Config) { c.MeasureRecords = 999 }, "sample_period"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := ok()
			tc.mutate(&c)
			if got := field(t, c.Validate()); got != tc.field {
				t.Errorf("Validate: field %q, want %q", got, tc.field)
			}
			_, err := shift.RunBatch([]shift.Config{c})
			if got := field(t, err); got != tc.field {
				t.Errorf("RunBatch: field %q, want %q", got, tc.field)
			}
		})
	}
}

// TestCellCheckAccepts runs the cells at the edges of the ranges through
// Config.Validate and, where the window is small enough to simulate,
// through RunBatch.
func TestCellCheckAccepts(t *testing.T) {
	accept := func(name string, c shift.Config, run bool) {
		t.Helper()
		if err := c.Validate(); err != nil {
			t.Errorf("%s: Validate refused it: %v", name, err)
		}
		if !run {
			return
		}
		if _, err := shift.RunBatch([]shift.Config{c}); err != nil {
			t.Errorf("%s: RunBatch refused it: %v", name, err)
		}
	}
	accept("valid cell", ok(), true)
	// Zero means the default: 16 cores, the design's history, and a window
	// too long to simulate here.
	c := ok()
	c.Cores, c.HistEntries, c.WarmupRecords, c.MeasureRecords = 0, 0, 0, 0
	accept("defaults", c, false)
	// The largest window, too long to simulate here.
	c = ok()
	c.WarmupRecords, c.MeasureRecords = 1<<29, 1<<29-1
	accept("window of 2^30 - 1 records", c, false)
	// The largest history.
	c = ok()
	c.HistEntries = 1 << 20
	accept("history of 2^20 records", c, false)
	// Every accepted confidence level.
	for _, conf := range []float64{0, 0.90, 0.95, 0.99} {
		c := ok()
		c.Sampling.Confidence = conf
		accept("confidence", c, true)
	}
}

// TestSampledWindow pins the cross-field rule: a sampling chunk (period x
// interval) must fit twice in the measurement window.
func TestSampledWindow(t *testing.T) {
	window := func(period, interval, measure int64) error {
		return shift.Config{
			Workload:       "Web Search",
			Cores:          1,
			MeasureRecords: measure,
			Sampling:       shift.Sampling{Period: period, IntervalRecords: interval},
		}.Validate()
	}
	// Exact simulation always fits.
	if err := window(0, 0, 10); err != nil {
		t.Errorf("period 0 rejected: %v", err)
	}
	if err := window(1, 1000, 1); err != nil {
		t.Errorf("period 1 rejected: %v", err)
	}
	// Two chunks fit exactly.
	if err := window(10, 50, 1000); err != nil {
		t.Errorf("exact fit rejected: %v", err)
	}
	// One record short of two chunks.
	if got := field(t, window(10, 50, 999)); got != "sample_period" {
		t.Errorf("undersized window: field %q, want sample_period", got)
	}
	// The 500-record default interval applies when interval is 0.
	if err := window(10, 0, 9999); err == nil {
		t.Error("undersized window with default interval accepted")
	}
	if err := window(10, 0, 10000); err != nil {
		t.Errorf("fitting window with default interval rejected: %v", err)
	}
}

func TestFieldError(t *testing.T) {
	fe := validate.Fieldf("cores", "must be in [%d,%d], got %d", 1, 16, 20)
	if fe.Error() != "cores: must be in [1,16], got 20" {
		t.Errorf("Error() = %q", fe.Error())
	}
	var target *validate.FieldError
	if !errors.As(error(fe), &target) || target.Field != "cores" {
		t.Error("errors.As failed to recover the field")
	}
}
