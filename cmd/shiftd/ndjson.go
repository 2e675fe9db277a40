package main

import (
	"encoding/json"
	"strconv"
	"sync"

	"shift"
)

// A replayed job's stream is one cell line per cell, each mostly its
// result's encoding, so the line of a successful cell is framed by hand
// around the result's bytes — encoded once per shared result by the job
// manager — instead of by a json.Encoder reflecting over every result of
// every stream. The framing is byte for byte the encoder's
// (FuzzStreamCellLine); every other event still goes through one.

// appendCellLine appends the NDJSON line of a successful cell event to b:
// what json.Encoder writes for jobStreamEvent{Type: "cell", Index: &index,
// Label: label, Key: key, Result: r}. encoded, when not nil, is r's
// encoding/json bytes; otherwise r is marshalled here, and a result
// encoding/json rejects (a NaN or an infinity) is the encoder's error.
func appendCellLine(b []byte, index int, label, key string, r *shift.RunResult, encoded []byte) ([]byte, error) {
	if encoded == nil {
		var err error
		if encoded, err = json.Marshal(r); err != nil {
			return b, err
		}
	}
	b = append(b, `{"type":"cell","index":`...)
	b = strconv.AppendInt(b, int64(index), 10)
	if label != "" {
		b = appendJSONString(append(b, `,"label":`...), label)
	}
	if key != "" {
		b = appendJSONString(append(b, `,"key":`...), key)
	}
	b = append(append(b, `,"result":`...), encoded...)
	return append(b, "}\n"...), nil
}

// appendJSONString appends s as encoding/json quotes it. A string of
// printable ASCII without a quote, a backslash or an HTML-escaped <, >
// or & is copied between quotes; any other is marshalled, so control
// bytes, U+2028/U+2029 and invalid UTF-8 follow encoding/json's rules.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// lineBuffers recycles the buffers stream lines are framed in.
var lineBuffers = sync.Pool{New: func() any { return new([]byte) }}
