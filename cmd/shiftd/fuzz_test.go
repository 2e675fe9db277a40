package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"shift"
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
// keys survive re-encoding the decoded request. Whatever the body,
// decodeBody answers as a json.Decoder reading straight off the wire
// does — status, error document and decoded value — though it decodes
// most bodies without one.
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

	// reference decodes body as decodeBody did before it read bodies into
	// a buffer: through a json.Decoder over the limited wire.
	reference := func(body []byte, dst any) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		err := json.NewDecoder(http.MaxBytesReader(rec, io.NopCloser(bytes.NewReader(body)), maxBody)).Decode(dst)
		var mbe *http.MaxBytesError
		switch {
		case errors.As(err, &mbe):
			writeError(rec, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes (see -max-body)", mbe.Limit))
		case err != nil:
			writeError(rec, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		}
		return rec
	}
	// decode runs decodeBody on body, checks its refusals, and holds its
	// answer and decoded value to the reference's (ref, of dst's type).
	decode := func(t *testing.T, body []byte, dst, ref any) bool {
		t.Helper()
		rec := httptest.NewRecorder()
		wire := &countingBody{Reader: bytes.NewReader(body)}
		req := httptest.NewRequest(http.MethodPost, "/v1/grid", nil)
		req.Body = wire
		ok := srv.decodeBody(rec, req, dst)
		if wire.n > maxBody+1 {
			t.Fatalf("read %d bytes of a %d-byte body past the %d-byte limit", wire.n, len(body), maxBody)
		}
		want := reference(body, ref)
		// An empty cell list is empty whether nil or not: decodeBody sizes
		// it up front, the decoder leaves it nil unless the body has "[]".
		for _, v := range []any{dst, ref} {
			if g, ok := v.(*gridRequest); ok && len(g.Cells) == 0 {
				g.Cells = nil
			}
		}
		if rec.Code != want.Code || rec.Body.String() != want.Body.String() || !reflect.DeepEqual(dst, ref) {
			t.Fatalf("decodeBody answered %d %s with %+v\nwant the decoder's %d %s with %+v",
				rec.Code, rec.Body, dst, want.Code, want.Body, ref)
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
		var grid, refGrid gridRequest
		var one, refOne cellSpec
		if !decode(t, body, &grid, &refGrid) || !decode(t, body, &one, &refOne) {
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

// FuzzStreamCellLine holds the hand-framed line of a successful cell to
// json.Encoder's: for any index, label, key and finite result, the line
// appendCellLine appends — around the result's bytes handed in, as a
// shared result's are, or marshalled on the spot — is byte for byte what
// the encoder writes for the event. A result with a NaN or an infinity is
// an error, as it is for the encoder.
func FuzzStreamCellLine(f *testing.F) {
	f.Add(0, "OLTP Oracle/SHIFT", "5f0c8a4e1b2d3c4f5a6b7c8d9e0f1a2b", "OLTP Oracle", "SHIFT", int64(16), 1.25, 3.5, 0.5, false)
	f.Add(5, "", "", "", "", int64(0), math.Copysign(0, -1), 1e300, 5e-324, true)
	f.Add(-1, "<b>&  \x7f\xff\"\\\n\t", "\x00\x1f<script>", "Web Search", "ZeroLat-SHIFT", int64(-3), 1e21, 1e-7, 123456789.0, false)
	f.Add(2, "ok", "key", "w", "d", int64(1), math.NaN(), 1.0, 1.0, false)
	f.Add(3, "ok", "key", "w", "d", int64(1), 1.0, math.Inf(-1), 1.0, false)
	f.Fuzz(func(t *testing.T, index int, label, key, workload, design string, n int64, throughput, mpki, coverage float64, sampled bool) {
		r := shift.RunResult{
			Workload: workload, Design: design, Cores: int(n), Instructions: n * 7, Misses: -n,
			Throughput: throughput, MPKI: mpki, MissCoverage: coverage, Sampled: sampled,
			MPKICI: coverage / 3, Traffic: shift.TrafficCounts{HistRead: n},
		}
		idx := index
		var want bytes.Buffer
		werr := json.NewEncoder(&want).Encode(jobStreamEvent{Type: "cell", Index: &idx, Label: label, Key: key, Result: &r})
		finite := true
		for _, v := range []float64{throughput, mpki, coverage, coverage / 3} {
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		if (werr == nil) != finite {
			t.Fatalf("the encoder's error %v for a result finite = %v", werr, finite)
		}
		got, err := appendCellLine(nil, index, label, key, &r, nil)
		if werr != nil {
			if err == nil {
				t.Fatalf("the framed line of a result the encoder rejects (%v) did not fail: %s", werr, got)
			}
			return
		}
		if err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("framed line (error %v)\n%s\nwant the encoder's\n%s", err, got, want.Bytes())
		}
		encoded, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		const prefix = "earlier line\n"
		got, err = appendCellLine([]byte(prefix), index, label, key, &r, encoded)
		if err != nil || string(got[:len(prefix)]) != prefix || !bytes.Equal(got[len(prefix):], want.Bytes()) {
			t.Fatalf("framed around the encoded result (error %v)\n%s\nwant the encoder's\n%s", err, got, want.Bytes())
		}
	})
}
