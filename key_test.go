package shift

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"shift/internal/workload"
)

// The content address of a cell is a persisted format: disk stores,
// journals and cluster peers hold keys computed by earlier builds. Key and
// StreamKey build their identities with strconv's appenders; the fmt
// derivations below are the format's reference, and every key must equal
// theirs byte for byte.

// unsignedZero returns v, or +0 for -0: the keys render a float zero
// unsigned, since -0 == 0.
func unsignedZero(v float64) float64 {
	if v == 0 {
		return 0
	}
	return v
}

// keyReference is Config.Key's identity rendered by fmt.
func keyReference(c Config) string {
	id := fmt.Sprintf("v1|%q|%d|%d|%d|%d|%t|%t|%g|%d|%d|%d",
		c.Workload, c.Design, c.CoreType, c.Cores, c.HistEntries,
		c.PredictionOnly, c.CommonalityMode, unsignedZero(c.ElimProb),
		c.WarmupRecords, c.MeasureRecords, c.Seed)
	if p := c.Sampling.Normalized(); p.Enabled() {
		id += fmt.Sprintf("|sampled|%d|%d|%g|%g",
			p.Period, p.IntervalRecords, unsignedZero(p.WarmupFraction), unsignedZero(p.Confidence))
	}
	h := sha256.Sum256([]byte(id))
	return hex.EncodeToString(h[:16])
}

// streamKeyReference is Config.StreamKey's identity rendered by fmt.
func streamKeyReference(c Config) string {
	s := c.Stream()
	id := fmt.Sprintf("s1|%q|%d|%d|%d", s.workload, s.cores, s.warm, s.meas)
	if p := s.sampling; p.Enabled() {
		id += fmt.Sprintf("|sampled|%d|%d|%g",
			p.Period, p.IntervalRecords, unsignedZero(p.WarmupFraction))
	}
	h := sha256.Sum256([]byte(id))
	return hex.EncodeToString(h[:16])
}

// oddNames are workload names fmt's %q escapes in every way it can.
var oddNames = []string{
	"", "OLTP Oracle", `quo"te`, `back\slash`, "tab\tnew\nline", "\x00\x7f",
	"\xff\xfe not UTF-8", "héllo wörld", "日本語", " \U0001F600", "spec:0123456789abcdef",
}

// oddFloats are the floats whose %g rendering has a special case.
var oddFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e-7, 1e21,
	1e20, 0.25, 0.95, -1.5, math.SmallestNonzeroFloat64, math.MaxFloat64, 1.0 / 3,
}

// randomConfig draws a config over the odd names and floats, exact about
// half the time and sampled otherwise.
func randomConfig(rng *rand.Rand) Config {
	pick := func() float64 {
		if rng.Intn(2) == 0 {
			return oddFloats[rng.Intn(len(oddFloats))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	num := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Int63n(100000)
		case 2:
			return -rng.Int63()
		}
		return rng.Int63()
	}
	c := Config{
		Workload:        oddNames[rng.Intn(len(oddNames))],
		Design:          Design(rng.Intn(12) - 2),
		CoreType:        CoreType(rng.Intn(5) - 1),
		Cores:           int(num()),
		HistEntries:     int(num()),
		PredictionOnly:  rng.Intn(2) == 0,
		CommonalityMode: rng.Intn(2) == 0,
		ElimProb:        pick(),
		WarmupRecords:   num(),
		MeasureRecords:  num(),
		Seed:            num(),
	}
	if rng.Intn(4) == 0 {
		c.Workload = workload.Names()[rng.Intn(len(workload.Names()))]
	}
	if rng.Intn(2) == 0 {
		c.Sampling = Sampling{Period: num(), IntervalRecords: num(), WarmupFraction: pick(), Confidence: pick()}
		if rng.Intn(3) == 0 {
			c.Sampling.Period = 2 + rng.Int63n(20)
		}
	}
	return c
}

// TestConfigKeyMatchesFormat: over random exact and sampled configs with
// odd names and floats, Key and StreamKey equal their fmt references.
func TestConfigKeyMatchesFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	sampled := 0
	for i := 0; i < n; i++ {
		c := randomConfig(rng)
		if c.Sampling.Enabled() {
			sampled++
		}
		if got, want := c.Key(), keyReference(c); got != want {
			t.Fatalf("Key(%#v) = %s, fmt reference %s", c, got, want)
		}
		if got, want := c.StreamKey(), streamKeyReference(c); got != want {
			t.Fatalf("StreamKey(%#v) = %s, fmt reference %s", c, got, want)
		}
	}
	if sampled < n/4 {
		t.Errorf("only %d of %d configs were sampled", sampled, n)
	}
}

// FuzzConfigKey is TestConfigKeyMatchesFormat's property over fuzzed
// fields, plus the content address's own: Configs that are == share their
// keys — here a copy with every float zero's sign flipped, which is == to
// the original (unless a field is NaN, which makes neither == anything).
func FuzzConfigKey(f *testing.F) {
	f.Add("OLTP Oracle", 5, 1, 16, 0, false, false, 0.0, int64(60000), int64(60000), int64(1), int64(0), int64(0), 0.0, 0.0)
	f.Add("\xff\"\\", -1, 7, 0, -3, true, true, math.NaN(), int64(-1), int64(0), int64(math.MaxInt64), int64(5), int64(0), math.Inf(-1), 1e21)
	f.Add("Web Search", 0, 0, 4, 2048, false, true, math.Copysign(0, -1), int64(4000), int64(10000), int64(7), int64(4), int64(500), 1e-7, 0.99)
	f.Fuzz(func(t *testing.T, name string, design, coreType, cores, hist int, pred, comm bool, elim float64,
		warm, meas, seed, period, interval int64, warmFrac, conf float64) {
		c := Config{
			Workload: name, Design: Design(design), CoreType: CoreType(coreType), Cores: cores, HistEntries: hist,
			PredictionOnly: pred, CommonalityMode: comm, ElimProb: elim,
			WarmupRecords: warm, MeasureRecords: meas, Seed: seed,
			Sampling: Sampling{Period: period, IntervalRecords: interval, WarmupFraction: warmFrac, Confidence: conf},
		}
		if got, want := c.Key(), keyReference(c); got != want {
			t.Fatalf("Key(%#v) = %s, fmt reference %s", c, got, want)
		}
		if got, want := c.StreamKey(), streamKeyReference(c); got != want {
			t.Fatalf("StreamKey(%#v) = %s, fmt reference %s", c, got, want)
		}
		flip := func(v float64) float64 {
			if v == 0 {
				return -v
			}
			return v
		}
		twin := c
		twin.ElimProb = flip(c.ElimProb)
		twin.Sampling.WarmupFraction = flip(c.Sampling.WarmupFraction)
		twin.Sampling.Confidence = flip(c.Sampling.Confidence)
		if twin == c && (twin.Key() != c.Key() || twin.StreamKey() != c.StreamKey()) {
			t.Fatalf("%#v and its == twin %#v have keys %s / %s and %s / %s",
				c, twin, c.Key(), c.StreamKey(), twin.Key(), twin.StreamKey())
		}
	})
}
