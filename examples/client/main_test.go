package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// startShiftd builds cmd/shiftd and starts it on a free loopback port
// with args, waits until /v1/readyz answers 200, and returns its base
// URL. The process is killed and waited for when the test ends.
func startShiftd(t *testing.T, args ...string) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	bin := filepath.Join(t.TempDir(), "shiftd")
	if out, err := exec.Command("go", "build", "-o", bin, "shift/cmd/shiftd").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() { cmd.Wait(); close(exited) }()
	t.Cleanup(func() { cmd.Process.Kill(); <-exited })

	base := "http://" + addr
	deadline := time.Now().Add(15 * time.Second)
	for {
		if resp, err := http.Get(base + "/v1/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base
			}
		}
		select {
		case <-exited:
			t.Fatalf("shiftd exited while booting:\n%s", stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("shiftd not ready within 15s")
		}
	}
}

// simulated reads the "simulated" counter from the /v1/stats document
// the client printed last.
func simulated(t *testing.T, out string) int64 {
	t.Helper()
	_, doc, ok := strings.Cut(out, "server stats:\n")
	var stats struct{ Simulated *int64 }
	if err := json.Unmarshal([]byte(doc), &stats); !ok || err != nil || stats.Simulated == nil {
		t.Fatalf("no /v1/stats document with a simulated count (%v) in:\n%s", err, out)
	}
	return *stats.Simulated
}

// TestClient runs the client twice against a live shiftd at -quick
// scale and checks its README: every cell streams once and the job ends
// done, the final results are in request order, the first pass
// simulates the four cells and the second simulates none, and a client
// whose admission bucket is drained waits out the 429 and resubmits.
func TestClient(t *testing.T) {
	// Four tokens refill in one second: a drained bucket costs the
	// second pass one Retry-After wait.
	base := startShiftd(t, "-quick", "-job-rate", "4", "-job-burst", "4")
	labels := []string{"exact/base", "exact/shift", "probe/base", "probe/shift"}

	check := func(out string) {
		t.Helper()
		streamed := regexp.MustCompile(`(?m)^  cell (\d) (\S+) +throughput=([0-9.]+) sampled=(true|false)$`).FindAllStringSubmatch(out, -1)
		seen := map[string]string{}
		for _, m := range streamed {
			if want := labels[m[1][0]-'0']; m[2] != want || seen[want] != "" {
				t.Errorf("stream event for cell %s is labelled %s (want %s) or repeats", m[1], m[2], want)
			}
			if (m[4] == "true") != strings.HasPrefix(m[2], "probe/") {
				t.Errorf("cell %s reports sampled=%s", m[2], m[4])
			}
			seen[m[2]] = m[3]
		}
		if len(seen) != len(labels) || !regexp.MustCompile(`(?m)^job \S+: done$`).MatchString(out) {
			t.Errorf("stream delivered %d of %d cells, or no end event with state done:\n%s", len(seen), len(labels), out)
		}
		_, final, _ := strings.Cut(out, "results in request order:\n")
		rows := regexp.MustCompile(`(?m)^  (\S+) +throughput=([0-9.]+)$`).FindAllStringSubmatch(final, -1)
		if len(rows) != len(labels) {
			t.Fatalf("%d final results, want %d:\n%s", len(rows), len(labels), out)
		}
		for i, r := range rows {
			if r[1] != labels[i] || r[2] != seen[labels[i]] {
				t.Errorf("final result %d is %s throughput=%s, want %s as streamed (%s)", i, r[1], r[2], labels[i], seen[labels[i]])
			}
		}
	}

	var first strings.Builder
	if err := run(&first, base, "Web Search"); err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + first.String())
	check(first.String())
	if sim := simulated(t, first.String()); sim != int64(len(labels)) {
		t.Errorf("first pass simulated %d cells, want %d", sim, len(labels))
	}

	// Drain the bucket with one-cell jobs (store hits) until one is refused.
	for refused := false; !refused; {
		resp, err := http.Post(base+"/v1/jobs", "application/json",
			strings.NewReader(`{"cells":[{"workload":"Web Search","design":"Baseline"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		refused = resp.StatusCode == http.StatusTooManyRequests
	}
	var second strings.Builder
	if err := run(&second, base, "Web Search"); err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + second.String())
	check(second.String())
	if !strings.HasPrefix(second.String(), "admission bucket drained; retrying in 1s\n") {
		t.Error("second pass did not wait out the 429")
	}
	if sim := simulated(t, second.String()); sim != int64(len(labels)) {
		t.Errorf("server has simulated %d cells after the second pass, want still %d", sim, len(labels))
	}
}
