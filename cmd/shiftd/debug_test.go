package main

import (
	"io"
	"net/http"
	"testing"
)

// TestDebugAddr: the profiles are served on the -debug-addr listener and
// nowhere else — the service address answers /debug/pprof/ with 404.
func TestDebugAddr(t *testing.T) {
	get := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	ts, _ := newTestServer(t)
	if code := get(ts.URL + "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("service address: /debug/pprof/ answered %d, want 404", code)
	}
	hs, addr, err := serveDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hs.Close() })
	base := "http://" + addr.String()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/trace?seconds=0.01"} {
		if code := get(base + path); code != http.StatusOK {
			t.Errorf("debug address: %s answered %d, want 200", path, code)
		}
	}
}
