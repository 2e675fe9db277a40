package store

import "sync"

// Flight is a single-flight group: it deduplicates concurrent
// computations of the same key so one owner does the work and every
// concurrent claimant shares the published result. Unlike the classic
// Do(key, fn) shape, Flight splits claiming from resolving so a caller
// can claim a batch of keys, compute them through a worker pool, and
// publish each as it completes (the experiment engine's shape).
//
// The zero Flight is ready to use. All methods are safe for concurrent
// use.
type Flight[V any] struct {
	mu sync.Mutex
	m  map[string]*Call[V]
}

// Call is one in-flight computation. The owner publishes through
// Flight.Resolve; every other claimant blocks in Wait.
type Call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Wait blocks until the owner resolves the call and returns the
// published value.
func (c *Call[V]) Wait() (V, error) {
	<-c.done
	return c.val, c.err
}

// Claim registers interest in key. If no computation of key is in
// flight the caller becomes the owner (owner=true) and MUST eventually
// call Resolve with the returned Call, or every future claimant of key
// deadlocks. Otherwise the caller shares the existing in-flight Call
// (owner=false) and should Wait on it.
func (f *Flight[V]) Claim(key string) (c *Call[V], owner bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.m[key]; ok {
		return c, false
	}
	c = &Call[V]{done: make(chan struct{})}
	if f.m == nil {
		f.m = make(map[string]*Call[V])
	}
	f.m[key] = c
	return c, true
}

// Resolve publishes the owner's result to every waiter and forgets the
// key, so later Claims start a fresh computation (by then the result is
// expected to live in a result store). Resolve must be called exactly
// once per owned Call.
func (f *Flight[V]) Resolve(key string, c *Call[V], val V, err error) {
	c.val, c.err = val, err
	f.mu.Lock()
	delete(f.m, key)
	f.mu.Unlock()
	close(c.done)
}

// Len returns the number of keys currently in flight.
func (f *Flight[V]) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}
