package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Error("empty GeoMean should be 0")
	}
	if !almostEq(GeoMean([]float64{2, 8}), 4) {
		t.Errorf("GeoMean(2,8) = %v", GeoMean([]float64{2, 8}))
	}
	if !almostEq(GeoMean([]float64{1.2}), 1.2) {
		t.Error("single-element GeoMean")
	}
}

func TestGeoMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("GeoMean(0) should panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestMeanStdDevCI(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEq(Mean(xs), 5) {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Error("empty Mean should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Min(xs) != 1 || Max(xs) != 5 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty extrema should be 0")
	}
}

func TestGeoMeanLEMaxProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = 1 + float64(r)/100
		}
		g := GeoMean(xs)
		return g >= Min(xs)-1e-9 && g <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTable(t *testing.T) {
	tab := NewTable("Workload", "Speedup")
	tab.AddRow("OLTP DB2", "1.21")
	tab.AddRow("Web Search") // short row padded
	s := tab.String()
	if !strings.Contains(s, "Workload") || !strings.Contains(s, "OLTP DB2") {
		t.Errorf("table missing content:\n%s", s)
	}
	if !strings.Contains(s, "---") {
		t.Error("table missing separator")
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}

func TestBar(t *testing.T) {
	if got := Bar(50); got != strings.Repeat("#", 20) {
		t.Errorf("Bar(50) = %q", got)
	}
	if got := Bar(200); got != strings.Repeat("#", 40) {
		t.Errorf("over-max Bar = %q", got)
	}
	if Bar(1) != "" || Bar(-1) != "" {
		t.Error("a bar under half a character should be empty")
	}
}
