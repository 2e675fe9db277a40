package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// countingBody counts the bytes a handler pulls off the wire.
type countingBody struct {
	io.Reader
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.Reader.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error { return nil }

// FuzzGridRequest drives arbitrary bytes through the decoder every
// simulation endpoint shares — decodeBody then cellsFromSpecs, as
// /v1/grid and /v1/jobs run it on a cell list and /v1/run on one cell —
// and holds it to the boundary's contract: no panic; no more than
// -max-body bytes (plus the one that proves the overflow) read from the
// wire, however long the body; a body that does not decode answers 400,
// or 413 when it is over the limit, with an error document; a cell list
// that does not resolve is refused with an error that names the wire
// field at fault; and one that resolves yields configurations whose
// keys survive re-encoding the decoded request.
func FuzzGridRequest(f *testing.F) {
	const maxBody = 2048
	for _, seed := range []string{
		// The README's request samples.
		`{"workload": "OLTP Oracle", "design": "SHIFT"}`,
		`{"cells": [{"workload": "Web Search", "design": "Baseline", "label": "base"}, {"workload": "Web Search", "design": "SHIFT"}]}`,
		`{"cells": [{"workload": "Web Search", "design": "Baseline", "label": "base"}, {"workload": "Web Search", "design": "SHIFT", "sample_period": 10}]}`,
		// An inline spec, every optional field, and the refusals.
		`{"cells": [{"spec": {"name": "Web Search", "seed": 107, "workload": {"base": "Web Search"}}, "design": "PIF_2K"}]}`,
		`{"cells": [{"workload": "Web Search", "design": "TIFS", "core_type": "Lean-IO", "cores": 2, "hist_entries": 1024, "prediction_only": true, "elim_prob": 0.5, "warmup_records": 100, "measure_records": 8000, "seed": 3, "sample_period": 2, "sample_interval": 500, "sample_warmup": 0.5, "sample_confidence": 0.9}]}`,
		`{"cells": [{"workload": "Web Search", "design": "MYSTERY"}, {"workload": "Web Search", "design": "SHIFT", "core_type": "Huge-OoO", "cores": 17}]}`,
		`{"cells": [{"spec": {"trace": {"path": "/etc/passwd"}}, "design": "SHIFT"}], "cells": []}`,
		`{"cells": [{"workload": "Web Search", "design": "SHIFT", "label": "` + strings.Repeat("a", 2*maxBody) + `"}]}`,
		`{not json`,
	} {
		f.Add([]byte(seed))
	}
	fields := map[string]bool{}
	for i, typ := 0, reflect.TypeOf(cellSpec{}); i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		fields[`"`+name+`"`] = true
	}
	srv := &server{base: testOpts(), maxBody: maxBody}

	// decode runs decodeBody on body and checks its refusals.
	decode := func(t *testing.T, body []byte, dst any) bool {
		t.Helper()
		rec := httptest.NewRecorder()
		wire := &countingBody{Reader: bytes.NewReader(body)}
		req := httptest.NewRequest(http.MethodPost, "/v1/grid", nil)
		req.Body = wire
		ok := srv.decodeBody(rec, req, dst)
		if wire.n > maxBody+1 {
			t.Fatalf("read %d bytes of a %d-byte body past the %d-byte limit", wire.n, len(body), maxBody)
		}
		if ok {
			return true
		}
		var doc map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc["error"] == "" {
			t.Fatalf("refusal body %q is not an error document", rec.Body)
		}
		if rec.Code != http.StatusBadRequest && (rec.Code != http.StatusRequestEntityTooLarge || len(body) <= maxBody) {
			t.Fatalf("a %d-byte body that does not decode answered %d", len(body), rec.Code)
		}
		return false
	}
	// resolve runs cellsFromSpecs and checks its refusals name a field.
	resolve := func(t *testing.T, specs []cellSpec) []string {
		t.Helper()
		cells, err := srv.cellsFromSpecs(specs)
		if err != nil {
			for field := range fields {
				if strings.Contains(err.Error(), field) {
					return nil
				}
			}
			t.Fatalf("refusal %q names no wire field", err)
		}
		keys := make([]string, len(cells)) // non-nil even when empty: nil means refused
		for i, c := range cells {
			keys[i] = c.Config.Key()
		}
		return keys
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var grid gridRequest
		var one cellSpec
		if !decode(t, body, &grid) || !decode(t, body, &one) {
			return
		}
		for _, specs := range [][]cellSpec{grid.Cells, {one}} {
			keys := resolve(t, specs)
			if keys == nil {
				continue
			}
			again, err := json.Marshal(gridRequest{Cells: specs})
			if err != nil {
				t.Fatalf("re-encoding the decoded request: %v", err)
			}
			var regrid gridRequest
			if err := json.Unmarshal(again, &regrid); err != nil {
				t.Fatalf("decoding the re-encoded request %s: %v", again, err)
			}
			if rekeys := resolve(t, regrid.Cells); !reflect.DeepEqual(keys, rekeys) {
				t.Fatalf("keys changed across a re-encode:\n%v\n%v\nrequest: %s", keys, rekeys, again)
			}
		}
	})
}
