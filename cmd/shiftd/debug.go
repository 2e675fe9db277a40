package main

import (
	"errors"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// serveDebug serves the process's profiles on a listener of their own at
// addr: net/http/pprof's index, CPU, heap, goroutine, block and mutex
// profiles under /debug/pprof/, and a runtime/trace execution trace at
// /debug/pprof/trace?seconds=N. None of it is reachable on the service
// address, and without -debug-addr nothing listens at all. It returns the
// server, for the caller to close, and the address it bound.
func serveDebug(addr string) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			log.Printf("shiftd: debug listener: %v", err)
		}
	}()
	return hs, ln.Addr(), nil
}
