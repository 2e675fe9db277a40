package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalog")

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(values, n=4) from Python.
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 3, 1, 4, 2}, 1.5, 3, 4.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1.2, 9.9, 4.4, 4.5, 0.3, 7.0, 2.1}, 1.2, 4.4, 7.0},
		{[]float64{2.5, 2.46, 2.57, 2.72, 2.52, 2.6, 2.49, 2.55, 2.51, 2.58, 2.66}, 2.5, 2.55, 2.6},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if !near(lowerQuartile(c.in), c.q1) || !near(median(c.in), c.q2) {
			t.Errorf("lowerQuartile/median(%v) disagree with quartiles", c.in)
		}
	}
	// Below three values a quartile stays inside the data (Python would
	// extrapolate to 0.75 and 2.25 here).
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 1 || q2 != 1.5 || q3 != 2 {
		t.Errorf("quartiles of two values = %v %v %v, want 1 1.5 2", q1, q2, q3)
	}
	if q1, _, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v %v, want 7 7", q1, q3)
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles of nothing = %v, want NaN", q1)
	}
}

func TestSpreadAndWorsening(t *testing.T) {
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("iqrShare = %v, want 1 (5.5 over 5.5)", got)
	}
	if got := worsening(100, 92, "higher"); !near(got, 0.08) {
		t.Errorf("a rate falling 100 to 92 worsens by %v, want 0.08", got)
	}
	if got := worsening(100, 92, "lower"); !near(got, -0.08) {
		t.Errorf("a time falling 100 to 92 worsens by %v, want -0.08", got)
	}
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	if got := percentile(lat, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "repetition", StartNs: 0, EndNs: 100e6},
		// Two overlapping children cover 10..60: the union, not the sum.
		{ID: 2, Parent: 1, Name: "job", StartNs: 10e6, EndNs: 40e6},
		{ID: 3, Parent: 1, Name: "job", StartNs: 30e6, EndNs: 60e6},
		// A grandchild, and one that overruns its parent and is clipped.
		{ID: 4, Parent: 2, Name: "submit", StartNs: 10e6, EndNs: 15e6},
		{ID: 5, Parent: 3, Name: "submit", StartNs: 55e6, EndNs: 70e6},
	}
	rows := map[string]selfRow{}
	var share float64
	for _, r := range selfTimes(spans) {
		rows[r.Name] = r
		share += r.SelfShare
	}
	want := map[string][3]float64{ // count, total ms, self ms
		"repetition": {1, 100, 50},
		"job":        {2, 60, 50}, // (30-5) + (30-5)
		"submit":     {2, 20, 20},
	}
	for name, w := range want {
		r := rows[name]
		if float64(r.Count) != w[0] || !near(r.TotalMs, w[1]) || !near(r.SelfMs, w[2]) {
			t.Errorf("%s: count %d total %v self %v, want %v", name, r.Count, r.TotalMs, r.SelfMs, w)
		}
	}
	if !near(share, 1) {
		t.Errorf("self shares add to %v, want 1", share)
	}
}

func TestRecorderNilAndParents(t *testing.T) {
	var none *recorder
	none.end(none.begin("t", "x", 0)) // a nil recorder records nothing and must not panic

	rec := newRecorder()
	root := rec.begin("rep-0", "repetition", 0)
	kid := rec.begin("rep-0", "engine.run_all", root)
	rec.end(kid)
	rec.end(root)
	if len(rec.spans) != 2 || rec.spans[1].Parent != root || rec.spans[0].Parent != 0 {
		t.Fatalf("spans %+v: want a root and a child that names it", rec.spans)
	}
	for _, s := range rec.spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %+v ends before it starts", s)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalogWithinContract(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's alphabet or length", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var setupBound, maxBound float64
	for _, m := range endToEnd {
		check("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want within (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s and lower-is-better")
			}
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound != maxBound {
		t.Errorf("setup_s must exist and carry the largest bound (has %v, largest %v)", setupBound, maxBound)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		check("layer metric", m.Name)
	}
}

func TestRepsFollowSecondsOnly(t *testing.T) {
	z := fullSizing()
	for _, w := range workloads {
		nominal := z.nominalReps[w.Name]
		if got := processes * z.repsPerProcess(w.Name, 60); got != 3*nominal {
			t.Errorf("%s: %d repetitions at 60 s, want three times the nominal %d", w.Name, got, nominal)
		}
		if got := processes * z.repsPerProcess(w.Name, 1); got != 9 {
			t.Errorf("%s: %d repetitions at 1 s, want the floor of 9", w.Name, got)
		}
	}
}

func TestJobSeedsNeverCollide(t *testing.T) {
	seen := map[int64]bool{}
	for _, bench := range []int64{1, 2, 1000} {
		for round := 0; round < 40; round++ {
			for cl := 0; cl < clients; cl++ {
				for i := 0; i < 700; i += 33 {
					s := jobSeed(bench, round, cl, i)
					if s <= 0 || seen[s] {
						t.Fatalf("seed %d for (%d,%d,%d,%d) is not positive and fresh", s, bench, round, cl, i)
					}
					seen[s] = true
				}
			}
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json; decoding is strict, so an extra
// key fails the test as it would fail the driver.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func catalogAsFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"go", "run", "-C", "benchmark", "shift/benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: 15,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}{m.Name, m.Unit, m.Better})
	}
	return f
}

func TestBenchmarkJSONListsWhatTheHarnessEmits(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := catalogAsFile()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is out of step with catalog.go; run `go test -run BenchmarkJSON -update`")
	}
}

// TestSmoke runs the built harness end to end at smoke size: all four
// workloads untraced (a live shiftd child for two of them), then one
// traced run, and checks the contract's last line and the trace file.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the harness")
	}
	bin := filepath.Join(t.TempDir(), "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building the harness: %v\n%s", err, out)
	}
	run := func(args ...string) []lastLine {
		t.Helper()
		cmd := exec.Command(bin, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%v: %v\n%s\n%s", args, err, out, stderr.Bytes())
		}
		var lines []lastLine
		for _, l := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if !strings.HasPrefix(l, "{") {
				continue
			}
			var ll lastLine
			dec := json.NewDecoder(strings.NewReader(l))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&ll); err != nil {
				t.Fatalf("result line %q: %v", l, err)
			}
			lines = append(lines, ll)
		}
		if !strings.HasPrefix(string(out[bytes.LastIndexByte(bytes.TrimSpace(out), '\n')+1:]), "{") {
			t.Fatalf("%v: the last line of standard output is not the result object", args)
		}
		return lines
	}

	lines := run("-smoke")
	if len(lines) != len(workloads) {
		t.Fatalf("%d result lines, want one per workload", len(lines))
	}
	for i, ll := range lines {
		if !ll.Correct || ll.Failed != 0 || ll.Attempted < 1 {
			t.Errorf("%s: %+v, want a correct run with no failed cells", workloads[i].Name, ll)
		}
		if len(ll.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want exactly the end-to-end ones", workloads[i].Name, len(ll.Metrics))
		}
		for _, m := range endToEnd {
			if v, ok := ll.Metrics[m.Name]; !ok || v.Unit != m.Unit || !(v.Value > 0) {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", workloads[i].Name, m.Name, v, m.Unit)
			}
		}
	}

	traced := run("--workload", wServiceHot, "--seed", "5", "--seconds", "1", "--trace", "1", "-smoke")
	if len(traced) != 1 || !traced[0].Correct || traced[0].Failed != 0 {
		t.Fatalf("traced run: %+v", traced)
	}
	if len(traced[0].Metrics) != len(perLayer) {
		t.Errorf("traced run: %d metrics, want exactly the %d layer ones", len(traced[0].Metrics), len(perLayer))
	}
	for _, m := range perLayer {
		if v, ok := traced[0].Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("traced run: layer metric %s missing or in the wrong unit: %+v", m.Name, v)
		}
	}
	data, err := os.ReadFile(filepath.Join("out", "trace_"+wServiceHot+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	ids := map[int]bool{}
	names := map[string]bool{}
	for _, s := range tf.Spans {
		ids[s.ID] = true
		names[s.Name] = true
	}
	for _, s := range tf.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %d names parent %d, which is not in the file", s.ID, s.Parent)
		}
		if s.Trace == "" || s.EndNs < s.StartNs {
			t.Errorf("span %+v lacks a trace id or ends before it starts", s)
		}
	}
	for _, n := range []string{"repetition", "job", "encode", "submit", "stream.open", "stream.wait"} {
		if !names[n] {
			t.Errorf("trace file has no %q span", n)
		}
	}
	if len(tf.Self) == 0 || tf.Counters["store_hits"] == 0 || tf.Counters["simulated"] != 0 {
		t.Errorf("trace file: self-time table %v, counters %v; the hot workload hits and never simulates", tf.Self, tf.Counters)
	}
}
