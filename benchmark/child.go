package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// child is one running shiftd. Every child is started on a free
// loopback port, watched for an early exit while it boots, and killed
// and waited for when the benchmark is done with it.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	stderr *tailBuffer
}

// tailBuffer keeps the last few KiB a child wrote, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 4096; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// freeAddr asks the kernel for an unused loopback port. Another process
// can take it before the child binds, so startShiftd retries.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// httpClient is shared by everything that talks to a child: every call
// has a deadline, so a stuck child fails the run instead of hanging it
// into the contract's time cap. Streams set their own, longer deadline
// through a context.
var httpClient = &http.Client{
	Timeout: 60 * time.Second,
	Transport: &http.Transport{
		MaxIdleConns:        16,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     30 * time.Second,
	},
}

// startShiftd boots bin with args plus a free -addr and waits until
// /v1/readyz answers 200. A child that exits while booting (it lost the
// race for its port, or rejected a flag) is detected at once, not by
// timing out.
func startShiftd(bin string, args ...string) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		c, err := startShiftdOnce(bin, args)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func startShiftdOnce(bin string, args []string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c := &child{
		cmd:    exec.Command(bin, append([]string{"-addr", addr}, args...)...),
		base:   "http://" + addr,
		exited: make(chan struct{}),
		stderr: &tailBuffer{},
	}
	c.cmd.Stderr = c.stderr
	c.cmd.Stdout = io.Discard
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = c.cmd.Wait() // the exit status is read from ProcessState
		close(c.exited)
	}()
	deadline := time.After(15 * time.Second)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-c.exited:
			return nil, fmt.Errorf("shiftd exited while booting: %s", c.stderr)
		case <-deadline:
			c.stop()
			return nil, fmt.Errorf("shiftd not ready within 15s: %s", c.stderr)
		case <-tick.C:
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/readyz", nil)
			resp, err := httpClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			cancel()
			if err == nil && resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
	}
}

// alive reports whether the child is still running.
func (c *child) alive() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

// stop kills the child and waits until it has ended. It returns the
// child's peak resident set and CPU time as the kernel accounted them.
func (c *child) stop() (maxRSSKB int64, cpuS float64) {
	if c == nil {
		return 0, 0
	}
	if c.alive() {
		_ = c.cmd.Process.Kill() // it may have just exited; Wait below settles it
	}
	<-c.exited
	if ps := c.cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			maxRSSKB = ru.Maxrss
		}
		cpuS = (ps.UserTime() + ps.SystemTime()).Seconds()
	}
	return maxRSSKB, cpuS
}

// getJSON and postJSON are the two plain calls; both drain and close
// the body so connections are reused.
func getJSON(url string, out any) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, http.StatusOK, out)
}

func postJSON(url string, headers map[string]string, body []byte, want int, out any) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, want, out)
}

func decodeResponse(resp *http.Response, want int, out any) error {
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", resp.Request.Method, resp.Request.URL.Path, err)
	}
	_, err := io.Copy(io.Discard, resp.Body)
	return err
}

// errChildGone is returned by calls that notice the child has exited.
var errChildGone = errors.New("shiftd child exited")
