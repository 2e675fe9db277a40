package store

import (
	"context"
	"errors"
	"io/fs"
	"syscall"
	"time"

	"shift/internal/retry"
)

// Retry's budget: three tries per operation, first included, with waits
// drawn from (0, 1ms] and then (0, 2ms] between them.
const retryAttempts, retryBase = 3, time.Millisecond

// Retry wraps a Blobs with bounded retry of transient errors under
// jittered exponential backoff (retry.Policy). Non-transient failures —
// corruption (re-reading yields the same bytes), a full disk (ENOSPC
// does not clear in milliseconds), permission errors — fail
// immediately; only the flaky-IO class (EIO under load,
// antivirus/file-lock collisions, overloaded network filesystems) is
// worth paying latency for.
type Retry struct {
	inner  Blobs
	policy retry.Policy
}

// WithRetry wraps inner with the store's retry budget. sleep performs
// the backoff waits (nil = time.Sleep; tests inject a recorder so retry
// tests take nanoseconds).
func WithRetry(inner Blobs, sleep func(time.Duration)) *Retry {
	return &Retry{inner: inner, policy: retry.Policy{Base: retryBase, Sleep: sleep}}
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

// Get returns the blob stored under key, retrying transient read
// errors.
func (s *Retry) Get(key string) (blob []byte, found bool, err error) {
	err = s.policy.Do(retryAttempts, func(int) error {
		var e error
		blob, found, e = s.inner.Get(key)
		return e
	}, transientIO)
	return blob, found, err
}

// Put stores blob under key, retrying transient write errors.
func (s *Retry) Put(key string, blob []byte) error {
	return s.policy.Do(retryAttempts, func(int) error { return s.inner.Put(key, blob) }, transientIO)
}

// Len returns the inner store's blob count, retrying transient errors.
func (s *Retry) Len() (n int, err error) {
	err = s.policy.Do(retryAttempts, func(int) error {
		var e error
		n, e = s.inner.Len()
		return e
	}, transientIO)
	return n, err
}

// Quarantine forwards to the inner store's Quarantiner, or reports
// errNotQuarantined when the inner store has none.
func (s *Retry) Quarantine(key string) error {
	if q, ok := s.inner.(Quarantiner); ok {
		return q.Quarantine(key)
	}
	return errNotQuarantined
}
