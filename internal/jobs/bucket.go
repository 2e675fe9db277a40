package jobs

import (
	"math"
	"sync"
	"time"
)

// maxClients bounds the bucket map: when a take would grow it past
// this, full (fully-refilled, i.e. idle) buckets are swept first. A
// full bucket is behaviorally identical to a fresh one, so sweeping
// never changes an admission decision.
const maxClients = 4096

// Buckets is a set of per-client token buckets for admission control.
// Each client key owns an independent bucket that refills continuously
// at Rate tokens per second up to a capacity of Burst; a request for n
// tokens is admitted iff the client's bucket holds at least n. New
// clients start with a full bucket, so a client's first Burst tokens
// are always admitted.
//
// Buckets is safe for concurrent use.
type Buckets struct {
	mu    sync.Mutex
	rate  float64
	burst float64
	now   func() time.Time
	m     map[string]*bucket
}

// bucket is one client's token state: the balance as of the last take.
type bucket struct {
	tokens float64
	last   time.Time
}

// newBuckets returns a bucket set refilling at rate tokens/second with
// capacity burst per client. Non-positive rate or burst are clamped to
// 1. The now function supplies the clock (nil = time.Now; tests inject
// a fake).
func newBuckets(rate, burst float64, now func() time.Time) *Buckets {
	if rate <= 0 {
		rate = 1
	}
	if burst <= 0 {
		burst = 1
	}
	if now == nil {
		now = time.Now
	}
	return &Buckets{rate: rate, burst: burst, now: now, m: make(map[string]*bucket)}
}

// Decision is the outcome of one admission check.
type Decision struct {
	// OK reports whether the request was admitted (by take: the tokens
	// have been debited).
	OK bool
	// RetryAfter is the wait after which a retry of the same request
	// would be admitted, rounded up to whole seconds (only meaningful
	// when OK is false and Never is false).
	RetryAfter time.Duration
	// Never reports that the request can never be admitted because its
	// cost exceeds the bucket capacity — no amount of waiting helps.
	Never bool
}

// take requests cost tokens from client's bucket and reports the
// decision. On admission the tokens are debited; on rejection the
// bucket is untouched and RetryAfter says when to come back.
func (b *Buckets) take(client string, cost float64) Decision {
	return b.decide(client, cost, true)
}

// check reports the decision take would make now, debiting nothing.
func (b *Buckets) check(client string, cost float64) Decision {
	return b.decide(client, cost, false)
}

// decide refills client's bucket and decides on cost tokens, debiting
// them on admission when debit is set.
func (b *Buckets) decide(client string, cost float64, debit bool) Decision {
	b.mu.Lock()
	defer b.mu.Unlock()
	if cost > b.burst {
		return Decision{Never: true}
	}
	now := b.now()
	bk, ok := b.m[client]
	if !ok {
		if len(b.m) >= maxClients {
			b.sweep()
		}
		bk = &bucket{tokens: b.burst, last: now}
		b.m[client] = bk
	}
	// Refill since the last touch, capped at capacity.
	if dt := now.Sub(bk.last).Seconds(); dt > 0 {
		bk.tokens = math.Min(b.burst, bk.tokens+dt*b.rate)
	}
	bk.last = now
	if bk.tokens >= cost {
		if debit {
			bk.tokens -= cost
		}
		return Decision{OK: true}
	}
	secs := math.Ceil((cost - bk.tokens) / b.rate)
	if secs < 1 {
		secs = 1
	}
	return Decision{RetryAfter: time.Duration(secs) * time.Second}
}

// sweep drops idle buckets (those that would refill to capacity),
// which are indistinguishable from fresh ones. Called with mu held.
func (b *Buckets) sweep() {
	now := b.now()
	for k, bk := range b.m {
		if bk.tokens+now.Sub(bk.last).Seconds()*b.rate >= b.burst {
			delete(b.m, k)
		}
	}
}
