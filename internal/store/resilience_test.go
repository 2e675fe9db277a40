package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestIntegrityRoundTrip checks that a footer-checked write reads back
// exactly, that the stored bytes carry the footer, and that Len is
// transparent.
func TestIntegrityRoundTrip(t *testing.T) {
	mem := NewMem()
	s := WithIntegrity(mem)
	payload := []byte(`{"throughput":1.5}`)
	if err := s.Put("k1", payload); err != nil {
		t.Fatal(err)
	}
	raw, ok, err := mem.Get("k1")
	if err != nil || !ok {
		t.Fatalf("raw get: %v %v", ok, err)
	}
	if !bytes.HasPrefix(raw, payload) || !bytes.Contains(raw, []byte(footerMarker)) {
		t.Fatalf("stored blob missing payload or footer: %q", raw)
	}
	got, ok, err := s.Get("k1")
	if err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip: got %q want %q", got, payload)
	}
	if n, _ := s.Len(); n != 1 {
		t.Fatalf("len: got %d want 1", n)
	}
}

// TestIntegrityLegacyBlobServedUnverified: a blob written without a
// footer (the pre-integrity format) must read back as-is — enabling
// integrity over an existing directory is backward compatible.
func TestIntegrityLegacyBlobServedUnverified(t *testing.T) {
	mem := NewMem()
	legacy := []byte(`{"legacy":true}`)
	if err := mem.Put("old", legacy); err != nil {
		t.Fatal(err)
	}
	s := WithIntegrity(mem)
	got, ok, err := s.Get("old")
	if err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	if !bytes.Equal(got, legacy) {
		t.Fatalf("legacy blob mangled: got %q want %q", got, legacy)
	}
}

// TestIntegrityDetectsCorruptionAndQuarantines covers the corruption
// classes the fault store injects: flipped payload bytes, a torn
// (truncated) footer, and a malformed footer. Each must be reported as
// ErrCorrupt, quarantined on the inner store, and then read as a plain
// miss; a re-Put must self-heal the key.
func TestIntegrityDetectsCorruptionAndQuarantines(t *testing.T) {
	payload := []byte(`{"throughput":2.25,"mpki":11.0}`)
	damage := map[string]func([]byte) []byte{
		"bitflip": func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)/3] ^= 0xff
			return out
		},
		"torn": func(b []byte) []byte { return b[:len(b)-4] },
		"malformed-footer": func(b []byte) []byte {
			return append(append([]byte(nil), b[:len(b)-9]...), []byte("zzzzzzzz\n")...)
		},
	}
	for name, injure := range damage {
		t.Run(name, func(t *testing.T) {
			mem := NewMem()
			s := WithIntegrity(mem)
			if err := s.Put("k", payload); err != nil {
				t.Fatal(err)
			}
			raw, _, _ := mem.Get("k")
			if err := mem.Put("k", injure(raw)); err != nil {
				t.Fatal(err)
			}
			_, ok, err := s.Get("k")
			if ok || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("corrupt get: ok=%v err=%v, want miss with ErrCorrupt", ok, err)
			}
			if got := s.Quarantined(); got != 1 {
				t.Fatalf("quarantined: got %d want 1", got)
			}
			if got := mem.QuarantineLen(); got != 1 {
				t.Fatalf("inner quarantine: got %d want 1", got)
			}
			// Quarantined key is now a plain miss, not an error.
			if _, ok, err := s.Get("k"); ok || err != nil {
				t.Fatalf("post-quarantine get: ok=%v err=%v, want clean miss", ok, err)
			}
			// Self-heal: the next Put recreates the blob.
			if err := s.Put("k", payload); err != nil {
				t.Fatal(err)
			}
			got, ok, err := s.Get("k")
			if err != nil || !ok || !bytes.Equal(got, payload) {
				t.Fatalf("self-heal get: %q %v %v", got, ok, err)
			}
		})
	}
}

// waitRecorder counts the backoff waits a Retry asks for instead of
// sleeping them; each wait precedes one retry.
type waitRecorder struct {
	mu    sync.Mutex
	waits []time.Duration
}

func (w *waitRecorder) sleep(d time.Duration) {
	w.mu.Lock()
	w.waits = append(w.waits, d)
	w.mu.Unlock()
}

// retries returns the number of waits recorded so far.
func (w *waitRecorder) retries() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.waits)
}

// TestRetryRecoversTransientErrors: scripted one-shot failures must be
// retried (with backoff sleeps recorded, not slept) and succeed within
// the attempt budget.
func TestRetryRecoversTransientErrors(t *testing.T) {
	var rec waitRecorder
	mem := NewMem()
	f := NewFault(mem, FaultPlan{})
	r := WithRetry(f, rec.sleep)

	f.FailNextPuts(2)
	if err := r.Put("k", []byte("v")); err != nil {
		t.Fatalf("put should recover after 2 injected failures: %v", err)
	}
	f.FailNextGets(1)
	got, ok, err := r.Get("k")
	if err != nil || !ok || string(got) != "v" {
		t.Fatalf("get should recover: %q %v %v", got, ok, err)
	}
	if rec.retries() != 3 {
		t.Fatalf("backoff sleeps: got %d want 3", rec.retries())
	}
	// The put waited before its first and second retry, the get before
	// its first.
	for i, max := range []time.Duration{time.Millisecond, 2 * time.Millisecond, time.Millisecond} {
		if d := rec.waits[i]; d <= 0 || d > max {
			t.Fatalf("sleep %d out of jitter bounds (0, %v]: %v", i, max, d)
		}
	}
}

// TestRetryGivesUpAndSkipsNonTransient: an error storm longer than the
// attempt budget surfaces the last error; ENOSPC, corruption and a
// context error (a client timeout is deliberate) are never retried.
func TestRetryGivesUpAndSkipsNonTransient(t *testing.T) {
	var rec waitRecorder
	mem := NewMem()
	f := NewFault(mem, FaultPlan{})
	r := WithRetry(f, rec.sleep)

	f.FailNextPuts(100)
	if err := r.Put("k", []byte("v")); !errors.Is(err, errInjected) {
		t.Fatalf("want injected error after exhausting retries, got %v", err)
	}
	if rec.retries() != 2 {
		t.Fatalf("retries: got %d want 2", rec.retries())
	}
	f.FailNextPuts(0)

	// ENOSPC must fail fast: no further retries recorded.
	f.SetPlan(FaultPlan{ENOSPCRate: 1})
	before := rec.retries()
	if err := r.Put("k", []byte("v")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	if rec.retries() != before {
		t.Fatal("ENOSPC was retried; it must fail fast")
	}

	// Corruption must fail fast through a Retry(Integrity(...)) stack.
	f.SetPlan(FaultPlan{})
	ri := WithRetry(WithIntegrity(mem), rec.sleep)
	if err := ri.Put("c", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw, _, _ := mem.Get("c")
	raw[0] ^= 0xff
	mem.Put("c", raw)
	before = rec.retries()
	if _, _, err := ri.Get("c"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if rec.retries() != before {
		t.Fatal("corruption was retried; it must fail fast")
	}

	for _, cerr := range []error{context.Canceled, context.DeadlineExceeded} {
		before = rec.retries()
		rc := WithRetry(failingBlobs{cerr}, rec.sleep)
		if _, _, err := rc.Get("deadbeef"); !errors.Is(err, cerr) || rec.retries() != before {
			t.Fatalf("context error: got %v after %d retries, want it unretried", err, rec.retries()-before)
		}
	}
}

// failingBlobs is a Blobs whose every operation fails with err.
type failingBlobs struct{ err error }

func (f failingBlobs) Get(string) ([]byte, bool, error) { return nil, false, f.err }
func (f failingBlobs) Put(string, []byte) error         { return f.err }
func (f failingBlobs) Len() (int, error)                { return 0, f.err }

// TestBreakerTripOpenHalfOpenRecover drives the full state machine with
// a fake clock: errors trip it, the cooldown gates the half-open probe,
// a failed probe re-opens, a successful probe closes.
func TestBreakerTripOpenHalfOpenRecover(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(BreakerConfig{Now: func() time.Time { return now }})

	if b.State() != BreakerClosed {
		t.Fatalf("initial state %s", b.State())
	}
	for i := 0; i < breakerThreshold-1; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker must allow")
		}
		b.Record(true)
	}
	if b.State() != BreakerClosed {
		t.Fatal("failures below threshold must not trip")
	}
	b.Allow()
	b.Record(true) // threshold-th failure: trip
	if b.State() != BreakerOpen || b.Trips() != 1 {
		t.Fatalf("state %s trips %d, want open/1", b.State(), b.Trips())
	}
	if b.Allow() {
		t.Fatal("open breaker must reject before cooldown")
	}
	if b.Rejected() != 1 {
		t.Fatalf("rejected: got %d want 1", b.Rejected())
	}

	now = now.Add(breakerCooldown + time.Second)
	if !b.Allow() {
		t.Fatal("cooled-down breaker must admit a half-open probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %s, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("only one probe at a time in half-open")
	}
	b.Record(true) // probe failed: re-open
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("state %s trips %d, want open/2", b.State(), b.Trips())
	}

	now = now.Add(breakerCooldown + time.Second)
	if !b.Allow() {
		t.Fatal("second probe must be admitted")
	}
	b.Record(false) // probe succeeded: close
	if b.State() != BreakerClosed {
		t.Fatalf("state %s, want closed after successful probe", b.State())
	}
	// The window was reset: old failures must not linger.
	b.Allow()
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatal("one failure after recovery must not trip a reset window")
	}
}

// TestBreakerSlidingWindowEvicts: failures older than the window must
// stop counting toward the threshold.
func TestBreakerSlidingWindowEvicts(t *testing.T) {
	b := NewBreaker(BreakerConfig{})
	record := func(failed bool, n int) {
		for ; n > 0; n-- {
			b.Allow()
			b.Record(failed)
		}
	}
	// Threshold-1 failures, pushed out of the window by a window of
	// successes, then threshold-1 failures again: never threshold in one
	// window.
	record(true, breakerThreshold-1)
	record(false, breakerWindow)
	record(true, breakerThreshold-1)
	if b.State() != BreakerClosed {
		t.Fatal("evicted failures must not trip")
	}
	record(true, 1)
	if b.State() != BreakerOpen {
		t.Fatalf("state %s, want open once window holds threshold failures", b.State())
	}
}

// TestFaultDeterminism: the same seed and operation sequence must
// reproduce the same fault schedule.
func TestFaultDeterminism(t *testing.T) {
	run := func() []bool {
		f := NewFault(NewMem(), FaultPlan{Seed: 42, PutErrorRate: 0.4})
		var outcomes []bool
		for i := 0; i < 64; i++ {
			outcomes = append(outcomes, f.Put("k", []byte("v")) != nil)
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault schedules diverge at op %d", i)
		}
	}
	var failures int
	for _, failed := range a {
		if failed {
			failures++
		}
	}
	if failures == 0 || failures == len(a) {
		t.Fatalf("rate 0.4 produced %d/%d failures; injection looks broken", failures, len(a))
	}
}

// TestFaultCorruptReadsLandInQuarantine: a stack Integrity(Fault(Mem))
// must convert injected bit-rot reads into a quarantine event and a
// clean miss. A torn read that truncates away the whole footer is the
// one corruption this layer cannot see (it is indistinguishable from a
// legacy blob); the root BlobStore catches it when the JSON payload
// fails to decode — proven by the root package's chaos tests.
func TestFaultCorruptReadsLandInQuarantine(t *testing.T) {
	mem := NewMem()
	f := NewFault(mem, FaultPlan{Seed: 3})
	s := WithIntegrity(f)
	payload := []byte(`{"x":1,"y":[2,3,4],"z":"abcdefgh"}`)

	if err := s.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	f.SetPlan(FaultPlan{Seed: 5, CorruptRate: 1})
	_, ok, err := s.Get("k")
	if ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-rot get: ok=%v err=%v, want ErrCorrupt miss", ok, err)
	}
	if mem.QuarantineLen() != 1 {
		t.Fatalf("quarantined: got %d want 1", mem.QuarantineLen())
	}

	// A half-truncated blob loses its footer entirely: served as
	// legacy bytes here, rejected (and quarantined) by the JSON layer
	// above.
	f.SetPlan(FaultPlan{})
	if err := s.Put("t", payload); err != nil {
		t.Fatal(err)
	}
	f.SetPlan(FaultPlan{Seed: 5, TornRate: 1})
	got, ok, err := s.Get("t")
	if err != nil || !ok {
		t.Fatalf("torn get: ok=%v err=%v", ok, err)
	}
	if bytes.Equal(got, payload) {
		t.Fatal("torn read unexpectedly intact")
	}
}

// TestDiskQuarantineMovesBlobAside: Disk.Quarantine must move the file
// under <dir>/quarantine (preserving bytes), drop it from Get and Len,
// survive reopen, and let a re-Put self-heal.
func TestDiskQuarantineMovesBlobAside(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("abcd1234", []byte("blob-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := d.Quarantine("abcd1234"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := d.Get("abcd1234"); ok || err != nil {
		t.Fatalf("quarantined key must be a clean miss: %v %v", ok, err)
	}
	if n, _ := d.Len(); n != 0 {
		t.Fatalf("len after quarantine: got %d want 0", n)
	}
	if d.QuarantineLen() != 1 {
		t.Fatalf("quarantine len: got %d want 1", d.QuarantineLen())
	}
	held, err := os.ReadFile(filepath.Join(dir, quarantineDir, "abcd1234"+blobExt))
	if err != nil || string(held) != "blob-bytes" {
		t.Fatalf("quarantined bytes not preserved: %q %v", held, err)
	}
	// Quarantining an absent key is a no-op.
	if err := d.Quarantine("ffff0000"); err != nil {
		t.Fatal(err)
	}
	if d.QuarantineLen() != 1 {
		t.Fatal("no-op quarantine must not count")
	}
	// Self-heal, then reopen: counts seed correctly and quarantined
	// blobs stay invisible to the walk.
	if err := d.Put("abcd1234", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := d2.Len(); n != 1 {
		t.Fatalf("reopened len: got %d want 1", n)
	}
	if d2.QuarantineLen() != 1 {
		t.Fatalf("reopened quarantine len: got %d want 1", d2.QuarantineLen())
	}
}

// TestFaultScriptedFailuresAreExact: FailNext* must inject exactly N
// failures and then heal.
func TestFaultScriptedFailuresAreExact(t *testing.T) {
	f := NewFault(NewMem(), FaultPlan{})
	f.FailNextPuts(3)
	var failed int
	for i := 0; i < 10; i++ {
		if f.Put("k", []byte("v")) != nil {
			failed++
		}
	}
	if failed != 3 {
		t.Fatalf("scripted put failures: got %d want 3", failed)
	}
	f.FailNextLens(1)
	if _, err := f.Len(); !errors.Is(err, errInjected) {
		t.Fatalf("want injected len error, got %v", err)
	}
	if _, err := f.Len(); err != nil {
		t.Fatalf("len must heal after scripted failure: %v", err)
	}
}

// TestIntegrityFooterNeverCollidesWithJSON: the footer marker starts
// with a newline, which json.Marshal output cannot contain — so footer
// detection cannot misfire on payload bytes. Guard that assumption.
func TestIntegrityFooterNeverCollidesWithJSON(t *testing.T) {
	tricky := []byte(`{"s":"#crc32c:deadbeef","t":"\n#crc32c:00000000\n"}`)
	if strings.Contains(string(tricky), footerMarker) {
		t.Fatal("JSON-escaped payload must not contain the raw footer marker")
	}
	s := WithIntegrity(NewMem())
	if err := s.Put("k", tricky); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("k")
	if err != nil || !ok || !bytes.Equal(got, tricky) {
		t.Fatalf("tricky payload round trip: %q %v %v", got, ok, err)
	}
}

// Test-only operations: only this package's tests call these, so they
// live in a test file rather than in the product.

// QuarantineLen returns the number of quarantined blobs.
func (s *Mem) QuarantineLen() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(len(s.quar))
}

// Rejected returns the number of operations Allow refused while open.
func (b *Breaker) Rejected() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rejected
}

// FailNextGets forces the next n Gets to fail with a transient
// injected error, ahead of the probabilistic plan.
func (f *Fault) FailNextGets(n int64) { f.failGets.Store(n) }

// FailNextPuts forces the next n Puts to fail with a transient
// injected error, ahead of the probabilistic plan.
func (f *Fault) FailNextPuts(n int64) { f.failPuts.Store(n) }
