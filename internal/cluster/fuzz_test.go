package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// wireBody is a request body of head, pad bytes of 'a' and tail, made up
// as it is read, counting what a handler pulls off the wire.
type wireBody struct {
	io.Reader
	n int64
}

func newWireBody(head []byte, pad int64, tail []byte) *wireBody {
	fill := io.LimitReader(repeatReader('a'), pad)
	return &wireBody{Reader: io.MultiReader(bytes.NewReader(head), fill, bytes.NewReader(tail))}
}

func (b *wireBody) Read(p []byte) (int, error) {
	n, err := b.Reader.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *wireBody) Close() error { return nil }

// repeatReader reads one byte forever.
type repeatReader byte

func (r repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// FuzzBatchRequest drives arbitrary bodies through the decoding half of
// POST /v1/batch (decodeBatch; nothing is simulated) and holds it to the
// boundary's contract: no panic; no more than 16 MiB, plus the one byte
// that proves the overflow, read from the wire however long the body; a
// body that does not decode to a batch of at least one cell whose spec
// documents each compile to their ID answers 400 with an error line; one
// that does is answered by nothing yet. A body is
// the input's first half, then pad bytes of 'a', then its second half —
// with big set, pad puts the body within 4 KiB of the limit on either
// side, so a valid prefix that runs long (one giant string field) meets
// the bound.
func FuzzBatchRequest(f *testing.F) {
	for _, seed := range []struct {
		body string
		pad  uint16
		big  bool
	}{
		{`{"cells": [{"Workload": "OLTP Oracle", "Design": 5, "Cores": 4, "WarmupRecords": 500, "MeasureRecords": 500, "Seed": 1}]}`, 0, false},
		{`{"cells": [{"Workload": "Web Search"}, {"Workload": "Web Search", "Design": 1, "Sampling": {"Period": 5}}]}`, 0, false},
		{`{"cells": [{"Workload": "spec:s@1"}], "specs": {"spec:s@1": {"name": "s", "workload": {"base": "Web Search"}}}}`, 0, false},
		{`{"cells": [{"Workload": "OLTP Oracle"}], "specs": {"x": {"name": "t", "trace": {"path": "/etc/passwd"}}}}`, 0, false},
		{`{"cells": []}`, 0, false},
		{`{}`, 0, false},
		{`{"cells": [{"Workload": ""}]}`, 2048, true},
		{`{"cells": [{"Workload": ""}]}`, 1, true},
		{`{"cells": [{"Cores": "four"}]}`, 0, false},
		{`{not json`, 100, false},
		{``, 0, false},
	} {
		f.Add([]byte(seed.body), seed.pad, seed.big)
	}
	f.Fuzz(func(t *testing.T, data []byte, pad uint16, big bool) {
		n := int64(pad)
		if big {
			n += maxBatchBody - 2048 - int64(len(data))
		}
		// A giant string field: the pad goes inside the first string.
		cut := len(data) / 2
		if i := bytes.LastIndexByte(data[:cut], '"'); i >= 0 {
			cut = i + 1
		}
		wire := newWireBody(data[:cut], max(n, 0), data[cut:])
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", nil)
		req.Body = wire
		rec := httptest.NewRecorder()
		batch, ok := decodeBatch(rec, req)
		if wire.n > maxBatchBody+1 {
			t.Fatalf("read %d bytes of a body past the %d-byte limit", wire.n, maxBatchBody)
		}
		if ok {
			if len(batch.Cells) == 0 || rec.Body.Len() != 0 {
				t.Fatalf("accepted a batch of %d cells and answered %q", len(batch.Cells), rec.Body)
			}
			return
		}
		if rec.Code != http.StatusBadRequest || strings.TrimSpace(rec.Body.String()) == "" {
			t.Fatalf("refused a body with %d %q", rec.Code, rec.Body)
		}
	})
}
