package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"shift"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenOpts pins a small single-workload configuration with a fixed
// seed; the simulator is a pure function of it, so the rendered output
// must be byte-identical run over run and across parallelism settings.
func goldenOpts() shift.Options {
	o := shift.QuickOptions()
	o.Workloads = []string{"Web Search"}
	o.Cores = 4
	o.WarmupRecords = 6000
	o.MeasureRecords = 6000
	o.Seed = 1
	return o
}

// TestGoldenOutput locks the CLI's rendered experiment output for a
// small fixed-seed run. Regenerate with: go test ./cmd/shiftsim -run
// TestGoldenOutput -update
func TestGoldenOutput(t *testing.T) {
	for _, name := range []string{"storage", "fig2", "fig3", "fig9", "fig10", "sensitivity", "generator"} {
		t.Run(name, func(t *testing.T) {
			o := goldenOpts()
			o.Engine = shift.NewEngine(4, nil) // golden output must not depend on the pool size
			got, err := runOne(name, o, nil)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output drifted from golden file %s:\n--- got ---\n%s\n--- want ---\n%s",
					name, path, got, want)
			}
		})
	}
}

// TestTimelineGolden locks shiftsim -timeline's NDJSON for a small
// fixed-seed exact run: every design on one workload at 4 cores, 6,000
// records of warmup and 2,000 measured, reported in four intervals of
// 500. Regenerate with: go test ./cmd/shiftsim -run TestTimelineGolden
// -update
func TestTimelineGolden(t *testing.T) {
	o := goldenOpts()
	o.MeasureRecords = 2000
	o.Engine = shift.NewEngine(4, nil) // the timeline must not depend on the pool size
	var got bytes.Buffer
	if err := shift.WriteTimeline(&got, o); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "timeline.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("timeline drifted from golden file %s:\n--- got ---\n%s\n--- want ---\n%s", path, got.Bytes(), want)
	}
}
