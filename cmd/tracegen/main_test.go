package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTracegenRoundTrip builds the binary and exercises generate → store
// → inspect end to end.
func TestTracegenRoundTrip(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tracegen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	trc := filepath.Join(dir, "ws.trc")
	out, err := exec.Command(bin, "-workload", "Web Search", "-records", "20000", "-out", trc).CombinedOutput()
	if err != nil {
		t.Fatalf("generate: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "wrote 20000 records") {
		t.Errorf("unexpected generate output: %s", out)
	}
	if fi, err := os.Stat(trc); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing: %v", err)
	}

	out, err = exec.Command(bin, "-in", trc, "-stats").CombinedOutput()
	if err != nil {
		t.Fatalf("stats: %v\n%s", err, out)
	}
	for _, want := range []string{"records:", "20000", "footprint:", "sequential:"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}

	// A trace cut mid-record is an error for -out as for -stats, never
	// a silently shorter copy.
	whole, err := os.ReadFile(trc)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.trc")
	if err := os.WriteFile(cut, whole[:len(whole)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-stats"}, {"-out", filepath.Join(dir, "copy.trc")}} {
		out, err := exec.Command(bin, append([]string{"-in", cut}, args...)...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "unexpected EOF") {
			t.Errorf("tracegen -in cut.trc %v: err %v, output %q; want exit 1 with unexpected EOF", args, err, out)
		}
	}

	out, err = exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("list: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "OLTP Oracle") {
		t.Errorf("list missing workloads:\n%s", out)
	}
}
