package jobs

import (
	"fmt"
	"testing"
	"time"
)

func TestBucketTakeRefill(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBuckets(1, 10, func() time.Time { return now })

	// A fresh client starts with a full bucket.
	if d := admit(b, "a", 10); !d.OK {
		t.Fatalf("fresh full-burst take = %+v, want OK", d)
	}
	// Drained: one token short needs one second at rate 1.
	if d := admit(b, "a", 1); d.OK || d.RetryAfter != time.Second {
		t.Fatalf("drained take = %+v, want Retry-After 1s", d)
	}
	// Rejections must not debit the bucket.
	now = now.Add(5 * time.Second)
	if d := admit(b, "a", 5); !d.OK {
		t.Fatalf("take after 5s refill = %+v, want OK", d)
	}
	// Retry-After rounds up: 3 tokens short at 1/s is 3 seconds.
	if d := admit(b, "a", 3); d.OK || d.RetryAfter != 3*time.Second {
		t.Fatalf("take = %+v, want Retry-After 3s", d)
	}
	// Refill caps at burst: a long idle client cannot exceed capacity.
	now = now.Add(time.Hour)
	if d := admit(b, "a", 10); !d.OK {
		t.Fatalf("capped refill take = %+v, want OK", d)
	}
	if d := admit(b, "a", 1); d.OK {
		t.Fatalf("take past capacity = %+v, want rejection", d)
	}
}

func TestBucketNever(t *testing.T) {
	b := newBuckets(1, 10, nil)
	d := admit(b, "a", 11)
	if !d.Never || d.OK {
		t.Fatalf("over-burst take = %+v, want Never", d)
	}
	// The bucket is untouched by a Never decision.
	if d := admit(b, "a", 10); !d.OK {
		t.Fatalf("follow-up take = %+v, want OK", d)
	}
}

func TestBucketsAreIndependent(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBuckets(1, 5, func() time.Time { return now })
	if d := admit(b, "a", 5); !d.OK {
		t.Fatal("client a should start full")
	}
	if d := admit(b, "b", 5); !d.OK {
		t.Fatal("client b should be unaffected by client a")
	}
	if clients(b) != 2 {
		t.Fatalf("Clients() = %d, want 2", clients(b))
	}
}

func TestBucketSweep(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBuckets(1, 4, func() time.Time { return now })
	for i := 0; i < maxClients; i++ {
		admit(b, fmt.Sprintf("c%d", i), 1)
	}
	if clients(b) != maxClients {
		t.Fatalf("Clients() = %d, want %d", clients(b), maxClients)
	}
	// After every bucket refills to capacity, the next new client sweeps
	// them all: full buckets are indistinguishable from fresh ones.
	now = now.Add(time.Hour)
	if d := admit(b, "fresh", 1); !d.OK {
		t.Fatal("fresh client should be admitted")
	}
	if clients(b) != 1 {
		t.Fatalf("Clients() after sweep = %d, want 1", clients(b))
	}
}

func TestBucketClamps(t *testing.T) {
	b := newBuckets(-1, 0, nil)
	if d := admit(b, "a", 1); !d.OK {
		t.Fatalf("clamped bucket take = %+v, want OK (rate and burst clamp to 1)", d)
	}
}

// admit is the manager's admission step: check, then take what check
// admitted.
func admit(b *Buckets, client string, cost float64) Decision {
	d := b.check(client, cost)
	if d.OK {
		b.take(client, cost)
	}
	return d
}

// clients returns the number of client buckets b tracks.
func clients(b *Buckets) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}
