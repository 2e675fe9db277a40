package store

import (
	"sync"
	"time"
)

// Breaker states.
const (
	// BreakerClosed is the healthy state: every operation is allowed.
	BreakerClosed = "closed"
	// BreakerOpen is the tripped state: operations are rejected until
	// the cooldown elapses.
	BreakerOpen = "open"
	// BreakerHalfOpen is the probing state: exactly one operation is
	// allowed through; its outcome decides between Closed and Open.
	BreakerHalfOpen = "half-open"
)

// A breaker trips when breakerThreshold of the breakerWindow most recent
// operations failed (a sustained 50% error rate), and stays open for
// breakerCooldown before it lets a half-open recovery probe through.
const (
	breakerWindow    = 16
	breakerThreshold = 8
	breakerCooldown  = 5 * time.Second
)

// BreakerConfig parameterizes a Breaker.
type BreakerConfig struct {
	// Now supplies the clock (nil = time.Now; tests inject a fake).
	Now func() time.Time
}

// Breaker is a circuit breaker over an error-prone resource (in this
// tree, the blob tier of a tiered shift.BlobStore). It watches a
// sliding window of operation outcomes; when failures within the window
// reach the threshold it trips open and Allow rejects every operation —
// the caller degrades (memory-only) instead of paying a failing tier's
// latency on every cell. After the cooldown, one half-open probe is let
// through: success closes the breaker, failure re-opens it for another
// cooldown. All methods are safe for concurrent use. A nil *Breaker
// never trips: Allow always admits, Record does nothing, and State is
// empty.
type Breaker struct {
	mu       sync.Mutex
	cfg      BreakerConfig
	state    string
	ring     [breakerWindow]bool // outcome window; true = failure
	pos      int
	failures int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	trips    int64
	rejected int64
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg, state: BreakerClosed}
}

// Allow reports whether the protected operation may run now. While
// open it returns false (and counts the rejection) until the cooldown
// elapses, then moves to half-open and admits exactly one probe; every
// admitted operation's outcome must be reported via Record.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.Now().Sub(b.openedAt) < breakerCooldown {
			b.rejected++
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			b.rejected++
			return false
		}
		b.probing = true
		return true
	}
}

// Record reports the outcome of an operation Allow admitted. In the
// closed state a failure may trip the breaker; in the half-open state
// the probe's outcome closes (success) or re-opens (failure) it.
func (b *Breaker) Record(failed bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if b.ring[b.pos] {
			b.failures--
		}
		b.ring[b.pos] = failed
		if failed {
			b.failures++
		}
		b.pos = (b.pos + 1) % len(b.ring)
		if b.failures >= breakerThreshold {
			b.trip()
		}
	case BreakerHalfOpen:
		b.probing = false
		if failed {
			b.trip()
		} else {
			b.state = BreakerClosed
			b.reset()
		}
	case BreakerOpen:
		// A late Record from an operation admitted before the trip;
		// the window was already reset, nothing to account.
	}
}

// trip opens the breaker and clears the window. Called with mu held.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.cfg.Now()
	b.trips++
	b.probing = false
	b.reset()
}

// reset clears the outcome window. Called with mu held.
func (b *Breaker) reset() {
	for i := range b.ring {
		b.ring[i] = false
	}
	b.pos, b.failures = 0, 0
}

// State returns the current state: BreakerClosed, BreakerOpen, or
// BreakerHalfOpen. The open→half-open transition happens lazily in
// Allow, so a cooled-down breaker still reports open until the next
// operation probes it.
func (b *Breaker) State() string {
	if b == nil {
		return ""
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips returns the number of closed→open (and half-open→open)
// transitions since creation.
func (b *Breaker) Trips() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
