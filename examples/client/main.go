// Client: drive a running shiftd from Go. Start the server first
// (go run ./cmd/shiftd -quick), then run this client. It checks
// /v1/healthz, submits a small grid as an asynchronous job (on 429 it
// waits as Retry-After says and resubmits), follows the job's NDJSON
// stream as cells land, reads the finished job's results in request
// order, and prints /v1/stats. Run it twice: the second pass is served
// from the server's store and simulates nothing.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"time"

	"shift"
)

// cell is the wire form of one grid cell (a subset of shiftd's fields).
type cell struct {
	Label        string `json:"label"`
	Workload     string `json:"workload"`
	Design       string `json:"design"`
	SamplePeriod int64  `json:"sample_period,omitempty"`
}

func main() {
	addr := flag.String("addr", "http://localhost:8080", "shiftd base URL")
	workload := flag.String("workload", "Web Search", "Table I workload")
	flag.Parse()
	if err := run(os.Stdout, *addr, *workload); err != nil {
		log.Fatal(err)
	}
}

// run submits a Baseline and a SHIFT cell of workload, exact and
// sampled, as one job to the shiftd at addr and prints its progress to w.
func run(w io.Writer, addr, workload string) error {
	client := &http.Client{Timeout: 30 * time.Minute}
	resp, err := client.Get(addr + "/v1/healthz")
	if err != nil {
		return fmt.Errorf("is shiftd running? (go run ./cmd/shiftd -quick): %w", err)
	}
	resp.Body.Close()

	body, _ := json.Marshal(map[string][]cell{"cells": { // strings and ints cannot fail
		{"exact/base", workload, "Baseline", 0},
		{"exact/shift", workload, "SHIFT", 0},
		{"probe/base", workload, "Baseline", 10}, // sampled: cheap, so
		{"probe/shift", workload, "SHIFT", 10},   // usually streamed first
	}})
	for {
		if resp, err = client.Post(addr+"/v1/jobs", "application/json", bytes.NewReader(body)); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			break
		}
		resp.Body.Close()
		wait, _ := strconv.Atoi(resp.Header.Get("Retry-After")) // absent or malformed: 0
		wait = max(wait, 1)
		fmt.Fprintf(w, "admission bucket drained; retrying in %ds\n", wait)
		time.Sleep(time.Duration(wait) * time.Second)
	}
	var sub struct {
		ID        string `json:"id"`
		StatusURL string `json:"status_url"`
		StreamURL string `json:"stream_url"`
	}
	if err := decode(resp, http.StatusAccepted, &sub); err != nil {
		return err
	}
	fmt.Fprintf(w, "job %s accepted; streaming %s\n", sub.ID, sub.StreamURL)

	if resp, err = client.Get(addr + sub.StreamURL); err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type, Label, Error, State string
			Index                     int
			Result                    shift.RunResult
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("bad stream line %q: %w", sc.Text(), err)
		}
		switch {
		case ev.Type == "cell" && ev.Error != "":
			fmt.Fprintf(w, "  cell %d %-12s FAILED: %s\n", ev.Index, ev.Label, ev.Error)
		case ev.Type == "cell":
			fmt.Fprintf(w, "  cell %d %-12s throughput=%.2f sampled=%v\n",
				ev.Index, ev.Label, ev.Result.Throughput, ev.Result.Sampled)
		case ev.Type == "end":
			fmt.Fprintf(w, "job %s: %s\n", sub.ID, ev.State)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	var status struct {
		State   string
		Results []*struct {
			Label  string
			Result shift.RunResult
		}
	}
	if resp, err = client.Get(addr + sub.StatusURL); err != nil {
		return err
	}
	if err := decode(resp, http.StatusOK, &status); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nfinal state %s; results in request order:\n", status.State)
	for _, r := range status.Results {
		if r != nil { // a failed cell has no result
			fmt.Fprintf(w, "  %-12s throughput=%.2f\n", r.Label, r.Result.Throughput)
		}
	}

	if resp, err = client.Get(addr + "/v1/stats"); err != nil {
		return err
	}
	defer resp.Body.Close()
	fmt.Fprintln(w, "\nserver stats:")
	_, err = io.Copy(w, resp.Body)
	return err
}

// decode reads resp's JSON body into v if resp has the status want.
func decode(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s: %s", resp.Request.URL.Path, resp.Status, msg)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
