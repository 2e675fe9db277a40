package store

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFlightSharesOneComputation is the single-flight property: N
// concurrent claimants of one key produce exactly one owner, and every
// waiter observes the owner's published value.
func TestFlightSharesOneComputation(t *testing.T) {
	var f Flight[int]
	const n = 16
	var owners atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	got := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			c, owner := f.Claim("key")
			if owner {
				owners.Add(1)
				f.Resolve("key", c, 42, nil)
				got[i] = 42
				return
			}
			v, err := c.Wait()
			if err != nil {
				t.Errorf("waiter got error: %v", err)
			}
			got[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	// All claims overlap before the owner resolves only in the common
	// case; a late claimant may become a second owner after the first
	// resolution. Either way every claimant must see 42, and at least
	// one owner must exist.
	if owners.Load() < 1 {
		t.Fatal("no owner")
	}
	for i, v := range got {
		if v != 42 {
			t.Errorf("claimant %d saw %d, want 42", i, v)
		}
	}
	if inFlight(&f) != 0 {
		t.Errorf("Len = %d after all resolutions, want 0", inFlight(&f))
	}
}

// TestFlightSequentialClaimsAreIndependent checks that Resolve forgets
// the key: a claim after resolution starts a fresh computation.
func TestFlightSequentialClaimsAreIndependent(t *testing.T) {
	var f Flight[string]
	c1, owner := f.Claim("k")
	if !owner {
		t.Fatal("first claim is not the owner")
	}
	f.Resolve("k", c1, "v1", nil)
	c2, owner := f.Claim("k")
	if !owner {
		t.Fatal("claim after resolution should own a fresh computation")
	}
	f.Resolve("k", c2, "v2", nil)
	if v, _ := c2.Wait(); v != "v2" {
		t.Errorf("second computation published %q, want v2", v)
	}
	if v, _ := c1.Wait(); v != "v1" {
		t.Errorf("first call mutated after resolution: %q", v)
	}
}

// TestFlightPropagatesErrors checks that waiters share the owner's
// error.
func TestFlightPropagatesErrors(t *testing.T) {
	var f Flight[int]
	c, owner := f.Claim("k")
	if !owner {
		t.Fatal("not owner")
	}
	waiter, owner2 := f.Claim("k")
	if owner2 {
		t.Fatal("second claim stole ownership")
	}
	want := errors.New("boom")
	go f.Resolve("k", c, 0, want)
	if _, err := waiter.Wait(); !errors.Is(err, want) {
		t.Errorf("waiter error = %v, want %v", err, want)
	}
	if inFlight(&f) != 0 {
		t.Errorf("Len = %d, want 0", inFlight(&f))
	}
}

// TestFlightDistinctKeysDoNotBlock checks that unrelated keys are
// independent owners.
func TestFlightDistinctKeysDoNotBlock(t *testing.T) {
	var f Flight[int]
	a, ownerA := f.Claim("a")
	b, ownerB := f.Claim("b")
	if !ownerA || !ownerB {
		t.Fatal("distinct keys must both be owned")
	}
	if inFlight(&f) != 2 {
		t.Errorf("Len = %d, want 2", inFlight(&f))
	}
	f.Resolve("a", a, 1, nil)
	f.Resolve("b", b, 2, nil)
	if va, _ := a.Wait(); va != 1 {
		t.Errorf("a = %d", va)
	}
	if vb, _ := b.Wait(); vb != 2 {
		t.Errorf("b = %d", vb)
	}
}

// inFlight is the number of f's keys in flight.
func inFlight[V any](f *Flight[V]) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}
