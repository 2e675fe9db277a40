package validate

import (
	"errors"
	"testing"
)

// ok is a Cell that passes every check.
func ok() Cell {
	return Cell{
		Cores:            16,
		HistEntries:      8192,
		ElimProb:         0.5,
		WarmupRecords:    1000,
		MeasureRecords:   1000,
		SamplePeriod:     10,
		SampleInterval:   50,
		SampleWarmup:     0.25,
		SampleConfidence: 0.95,
	}
}

// TestCellCheck enumerates every rejection of the shared constraint
// table, with the canonical field name each one must carry. The CLI
// (shift.Options), the service (shiftd cells and figure queries), and
// the spec layer all funnel through this table; their own tests cover
// only the per-front-end field-name rendering.
func TestCellCheck(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Cell)
		field  string
	}{
		{"cores low", func(c *Cell) { c.Cores = 0 }, "cores"},
		{"cores high", func(c *Cell) { c.Cores = 17 }, "cores"},
		{"cores negative", func(c *Cell) { c.Cores = -1 }, "cores"},
		{"hist entries", func(c *Cell) { c.HistEntries = -1 }, "hist_entries"},
		{"hist entries huge", func(c *Cell) { c.HistEntries = maxHistEntries + 1 }, "hist_entries"},
		{"elim low", func(c *Cell) { c.ElimProb = -0.1 }, "elim_prob"},
		{"elim high", func(c *Cell) { c.ElimProb = 1.1 }, "elim_prob"},
		{"warmup", func(c *Cell) { c.WarmupRecords = -1 }, "warmup_records"},
		{"measure", func(c *Cell) { c.MeasureRecords = -1 }, "measure_records"},
		{"warmup huge", func(c *Cell) { c.WarmupRecords = 1 << 30 }, "warmup_records"},
		{"measure huge", func(c *Cell) { c.MeasureRecords = 1 << 30 }, "measure_records"},
		{"window huge", func(c *Cell) { c.WarmupRecords, c.MeasureRecords = 1<<29, 1<<29 }, "measure_records"},
		{"window overflows", func(c *Cell) { c.WarmupRecords, c.MeasureRecords = 1<<62, 1<<62 }, "warmup_records"},
		{"sample period", func(c *Cell) { c.SamplePeriod = -1 }, "sample_period"},
		{"sample interval", func(c *Cell) { c.SampleInterval = -1 }, "sample_interval"},
		{"sample warmup low", func(c *Cell) { c.SampleWarmup = -0.1 }, "sample_warmup"},
		{"sample warmup high", func(c *Cell) { c.SampleWarmup = 1 }, "sample_warmup"},
		{"sample confidence", func(c *Cell) { c.SampleConfidence = 0.8 }, "sample_confidence"},
		{"sampled window", func(c *Cell) { c.MeasureRecords = 999 }, "sample_period"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := ok()
			tc.mutate(&c)
			fe := c.Check()
			if fe == nil {
				t.Fatal("accepted")
			}
			if fe.Field != tc.field {
				t.Errorf("field = %q (%v), want %q", fe.Field, fe, tc.field)
			}
			if fe.Msg == "" {
				t.Error("empty message")
			}
		})
	}
}

func TestCellCheckAccepts(t *testing.T) {
	if fe := ok().Check(); fe != nil {
		t.Errorf("valid cell rejected: %v", fe)
	}
	// The largest window.
	c := ok()
	c.WarmupRecords, c.MeasureRecords = 1<<29, 1<<29-1
	if fe := c.Check(); fe != nil {
		t.Errorf("window of 2^30 - 1 records rejected: %v", fe)
	}
	// Every accepted confidence level.
	for _, conf := range []float64{0, 0.90, 0.95, 0.99} {
		c := ok()
		c.SampleConfidence = conf
		if fe := c.Check(); fe != nil {
			t.Errorf("confidence %g rejected: %v", conf, fe)
		}
	}
}

// TestSampledWindow pins Check's cross-field rule: a sampling chunk
// (period x interval) must fit twice in the measurement window.
func TestSampledWindow(t *testing.T) {
	window := func(period, interval, measure int64) *FieldError {
		return Cell{Cores: 1, SamplePeriod: period, SampleInterval: interval, MeasureRecords: measure}.Check()
	}
	// Exact simulation always fits.
	if fe := window(0, 0, 10); fe != nil {
		t.Errorf("period 0 rejected: %v", fe)
	}
	if fe := window(1, 1000, 1); fe != nil {
		t.Errorf("period 1 rejected: %v", fe)
	}
	// Two chunks fit exactly.
	if fe := window(10, 50, 1000); fe != nil {
		t.Errorf("exact fit rejected: %v", fe)
	}
	// One record short of two chunks.
	fe := window(10, 50, 999)
	if fe == nil {
		t.Fatal("undersized window accepted")
	}
	if fe.Field != "sample_period" {
		t.Errorf("field = %q, want sample_period", fe.Field)
	}
	// The 500-record default interval applies when interval is 0.
	if fe := window(10, 0, 9999); fe == nil {
		t.Error("undersized window with default interval accepted")
	}
	if fe := window(10, 0, 10000); fe != nil {
		t.Errorf("fitting window with default interval rejected: %v", fe)
	}
}

func TestFieldError(t *testing.T) {
	fe := Fieldf("cores", "must be in [%d,%d], got %d", 1, 16, 20)
	if fe.Error() != "cores: must be in [1,16], got 20" {
		t.Errorf("Error() = %q", fe.Error())
	}
	var target *FieldError
	if !errors.As(error(fe), &target) || target.Field != "cores" {
		t.Error("errors.As failed to recover the field")
	}
}
