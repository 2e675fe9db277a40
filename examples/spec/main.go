// Spec: run a declarative workload spec through the library, then push
// the same spec through a running shiftd's async job API and confirm
// both paths produce the identical result — the determinism and
// content-addressing contract of workload specs, end to end.
//
// The library half always runs. For the service half, start the server
// first (matching scale so the cells are identical):
//
//	go run ./cmd/shiftd -quick
//
// then run this example; without a reachable server it prints the
// library results and skips the service comparison.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"shift"
)

//go:embed burst.json
var doc []byte // the spec document, embedded so the example runs from any directory

func main() {
	// Compile and register the spec document. The returned ID embeds a
	// hash of the normalized content: equal documents give equal IDs.
	id, err := shift.LoadSpec(doc)
	if err != nil {
		var fe *shift.FieldError
		if errors.As(err, &fe) {
			log.Fatalf("spec rejected at field %q: %s", fe.Field, fe.Msg)
		}
		log.Fatal(err)
	}
	fmt.Printf("compiled %s\n", id)

	// Sweep designs over the spec exactly like a catalog workload: the
	// Figure 8 driver with the workload axis set to the spec ID.
	o := shift.QuickOptions()
	o.Workloads = []string{id}
	o.Engine = shift.NewEngine(0, shift.NewResultCache())
	fig, err := shift.RunFigure8(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fig)

	// The same sweep through shiftd's async job API, submitted as inline
	// spec cells. Requires a server at :8080 started with -quick.
	if err := viaJobAPI(doc); err != nil {
		fmt.Printf("service half skipped: %v\n", err)
	}
}

// viaJobAPI submits Baseline and SHIFT cells for the spec through
// POST /v1/jobs, polls to completion, and prints the speedup.
func viaJobAPI(doc []byte) error {
	// The wire carries the spec document's own bytes: identical content
	// resolves to the identical content-addressed ID the library half
	// just ran.
	spec := json.RawMessage(doc)
	body, err := json.Marshal(map[string]any{"cells": []map[string]any{
		{"spec": spec, "design": "Baseline"},
		{"spec": spec, "design": "SHIFT"},
	}})
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 5 * time.Minute}
	resp, err := client.Post("http://localhost:8080/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, msg)
	}
	var sub struct {
		StatusURL string `json:"status_url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return err
	}

	for {
		st, err := jobStatus(client, "http://localhost:8080"+sub.StatusURL)
		if err != nil {
			return err
		}
		if st.State == "done" || st.State == "failed" {
			if len(st.Results) != 2 || st.Results[0] == nil || st.Results[1] == nil {
				return fmt.Errorf("job finished %s with incomplete results", st.State)
			}
			sp := st.Results[1].Result.Throughput / st.Results[0].Result.Throughput
			fmt.Printf("via job API: SHIFT speedup %.2fx (keys %s, %s)\n",
				sp, st.Results[0].Key, st.Results[1].Key)
			return nil
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// jobStatus fetches and decodes one job status document.
func jobStatus(client *http.Client, url string) (*status, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// status is the subset of the job status document this example reads.
type status struct {
	State   string `json:"state"`
	Results []*struct {
		Key    string          `json:"key"`
		Result shift.RunResult `json:"result"`
	} `json:"results"`
}
