package store

import (
	"context"
	"errors"
	"io/fs"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// RetryPolicy parameterizes a Retry wrapper. The zero value selects the
// defaults noted on each field.
type RetryPolicy struct {
	// Attempts is the total number of tries per operation, first
	// included (0 = 3). Only transient errors are retried.
	Attempts int
	// BaseDelay is the backoff unit: before retry k the wrapper sleeps
	// a uniformly jittered duration in (0, BaseDelay<<k] — "full
	// jitter", so a thundering herd of workers retrying one hiccup
	// spreads out instead of hammering the disk in lockstep (0 = 1ms).
	BaseDelay time.Duration
	// Seed seeds the jitter source, making test schedules reproducible
	// (0 = 1).
	Seed int64
	// Sleep performs the backoff wait (nil = time.Sleep; tests inject a
	// recorder so retry tests take nanoseconds).
	Sleep func(time.Duration)
}

// Retry wraps a Blobs with bounded retry of transient errors under
// jittered exponential backoff. Non-transient failures — corruption
// (re-reading yields the same bytes), a full disk (ENOSPC does not
// clear in milliseconds), permission errors — fail immediately; only
// the flaky-IO class (EIO under load, antivirus/file-lock collisions,
// overloaded network filesystems) is worth paying latency for.
type Retry struct {
	inner   Blobs
	policy  RetryPolicy
	mu      sync.Mutex // guards rng
	rng     *rand.Rand
	retries atomic.Int64
}

// WithRetry wraps inner with the given retry policy.
func WithRetry(inner Blobs, policy RetryPolicy) *Retry {
	if policy.Attempts <= 0 {
		policy.Attempts = 3
	}
	if policy.BaseDelay <= 0 {
		policy.BaseDelay = time.Millisecond
	}
	if policy.Seed == 0 {
		policy.Seed = 1
	}
	if policy.Sleep == nil {
		policy.Sleep = time.Sleep
	}
	return &Retry{inner: inner, policy: policy, rng: rand.New(rand.NewSource(policy.Seed))}
}

// transientIO reports whether err is worth retrying: an IO error that
// plausibly clears within milliseconds. Corruption, full disk,
// permission failures, malformed keys, and cancellation are
// deterministic (or deliberate) and excluded.
func transientIO(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrCorrupt) || errors.Is(err, syscall.ENOSPC) ||
		errors.Is(err, fs.ErrPermission) || errors.Is(err, fs.ErrNotExist) ||
		errors.Is(err, fs.ErrInvalid) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// backoff waits the jittered delay before retry attempt k (0-based).
func (s *Retry) backoff(k int) {
	max := s.policy.BaseDelay << uint(k)
	s.mu.Lock()
	d := time.Duration(s.rng.Int63n(int64(max))) + 1
	s.mu.Unlock()
	s.policy.Sleep(d)
}

// do runs op up to Attempts times, backing off between transient
// failures.
func (s *Retry) do(op func() error) error {
	var err error
	for k := 0; k < s.policy.Attempts; k++ {
		if k > 0 {
			s.retries.Add(1)
			s.backoff(k - 1)
		}
		if err = op(); !transientIO(err) {
			return err
		}
	}
	return err
}

// Get returns the blob stored under key, retrying transient read
// errors.
func (s *Retry) Get(key string) (blob []byte, found bool, err error) {
	err = s.do(func() error {
		var e error
		blob, found, e = s.inner.Get(key)
		return e
	})
	return blob, found, err
}

// Put stores blob under key, retrying transient write errors.
func (s *Retry) Put(key string, blob []byte) error {
	return s.do(func() error { return s.inner.Put(key, blob) })
}

// Len returns the inner store's blob count, retrying transient errors.
func (s *Retry) Len() (n int, err error) {
	err = s.do(func() error {
		var e error
		n, e = s.inner.Len()
		return e
	})
	return n, err
}

// Quarantine forwards to the inner store's Quarantiner, if any.
func (s *Retry) Quarantine(key string) error {
	if q, ok := s.inner.(Quarantiner); ok {
		return q.Quarantine(key)
	}
	return nil
}

// Retries returns the number of retry attempts performed (not counting
// each operation's first try).
func (s *Retry) Retries() int64 { return s.retries.Load() }
