package store

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
)

// errInjected marks a failure synthesized by a Fault store, so chaos
// tests can distinguish injected faults from real ones.
var errInjected = errors.New("store: injected fault")

// FaultPlan parameterizes a Fault store: per-operation probabilities of
// each failure mode, drawn from a seeded deterministic source. All
// rates are in [0,1]; the zero value injects nothing.
type FaultPlan struct {
	// Seed seeds the fault schedule; the same seed and operation
	// sequence reproduce the same faults (0 = 1).
	Seed int64
	// GetErrorRate is the probability a Get fails with a transient IO
	// error (errInjected).
	GetErrorRate float64
	// PutErrorRate is the probability a Put fails with a transient IO
	// error (errInjected).
	PutErrorRate float64
	// CorruptRate is the probability a successful Get returns the blob
	// with flipped bytes — a bit-rot read.
	CorruptRate float64
	// TornRate is the probability a successful Get returns a prefix of
	// the blob — a torn read, as after a crash on a non-atomic
	// filesystem.
	TornRate float64
	// ENOSPCRate is the probability a Put fails with syscall.ENOSPC —
	// a full disk, which Retry must not retry.
	ENOSPCRate float64
}

// Fault wraps a Blobs with deterministic, seedable fault injection:
// transient IO errors, bit-rot and torn reads and ENOSPC writes, each at
// a configured rate — the failure model the chaos
// suite drives every resilience layer with. Faults are drawn per
// operation from the plan's seeded source, so a test's fault schedule
// is a pure function of (seed, operation sequence). SetPlan swaps the
// plan at runtime, so a test can storm errors, watch the breaker trip,
// then heal the backend and watch recovery.
type Fault struct {
	inner Blobs

	mu   sync.Mutex // guards plan + rng
	plan FaultPlan
	rng  *rand.Rand

	// Scripted one-shot faults, consumed before the probabilistic plan:
	// FailNextGets/Puts/Lens force exactly-N deterministic failures.
	failGets atomic.Int64
	failPuts atomic.Int64
	failLens atomic.Int64

	injected atomic.Int64
	ops      atomic.Int64
}

// NewFault wraps inner with the given fault plan.
func NewFault(inner Blobs, plan FaultPlan) *Fault {
	f := &Fault{inner: inner}
	f.SetPlan(plan)
	return f
}

// SetPlan replaces the fault plan (and reseeds the fault schedule).
// Safe to call concurrently with operations.
func (f *Fault) SetPlan(plan FaultPlan) {
	if plan.Seed == 0 {
		plan.Seed = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plan = plan
	f.rng = rand.New(rand.NewSource(plan.Seed))
}

// FailNextLens forces the next n Lens to fail with a transient
// injected error, ahead of the probabilistic plan.
func (f *Fault) FailNextLens(n int64) { f.failLens.Store(n) }

// Injected returns the number of faults injected so far.
func (f *Fault) Injected() int64 { return f.injected.Load() }

// Ops returns the number of operations that reached the inner store.
func (f *Fault) Ops() int64 { return f.ops.Load() }

// roll draws one uniform sample and the current plan under the lock.
func (f *Fault) roll() (float64, FaultPlan) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64(), f.plan
}

// corrupt returns blob with deterministic damage: torn (prefix) or
// bit-rot (flipped bytes), chosen by the caller.
func (f *Fault) corrupt(blob []byte, torn bool) []byte {
	out := make([]byte, len(blob))
	copy(out, blob)
	if len(out) == 0 {
		return out
	}
	if torn {
		return out[:len(out)/2]
	}
	// Flip a byte in the middle and the last byte: the middle flip
	// breaks the payload CRC, the last flip breaks footer parsing —
	// both must land in quarantine.
	out[len(out)/2] ^= 0xff
	out[len(out)-1] ^= 0xff
	return out
}

// scripted consumes one scripted failure from ctr, if any remain.
func scripted(ctr *atomic.Int64) bool {
	for {
		n := ctr.Load()
		if n <= 0 {
			return false
		}
		if ctr.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// Get returns the blob under key, subject to injected errors and
// corrupt/torn reads.
func (f *Fault) Get(key string) ([]byte, bool, error) {
	p, plan := f.roll()
	if scripted(&f.failGets) || p < plan.GetErrorRate {
		f.injected.Add(1)
		return nil, false, fmt.Errorf("%w: get %q", errInjected, key)
	}
	blob, ok, err := f.inner.Get(key)
	f.ops.Add(1)
	if err != nil || !ok {
		return blob, ok, err
	}
	q, plan := f.roll()
	switch {
	case q < plan.TornRate:
		f.injected.Add(1)
		return f.corrupt(blob, true), true, nil
	case q < plan.TornRate+plan.CorruptRate:
		f.injected.Add(1)
		return f.corrupt(blob, false), true, nil
	}
	return blob, true, nil
}

// Put stores blob under key, subject to injected errors and ENOSPC.
func (f *Fault) Put(key string, blob []byte) error {
	p, plan := f.roll()
	if scripted(&f.failPuts) || p < plan.PutErrorRate {
		f.injected.Add(1)
		return fmt.Errorf("%w: put %q", errInjected, key)
	}
	if p < plan.PutErrorRate+plan.ENOSPCRate {
		f.injected.Add(1)
		return fmt.Errorf("store: put %q: %w", key, syscall.ENOSPC)
	}
	err := f.inner.Put(key, blob)
	f.ops.Add(1)
	return err
}

// Len returns the inner store's count, subject to injected errors.
func (f *Fault) Len() (int, error) {
	if scripted(&f.failLens) {
		f.injected.Add(1)
		return 0, fmt.Errorf("%w: len", errInjected)
	}
	n, err := f.inner.Len()
	f.ops.Add(1)
	return n, err
}

// Quarantine forwards to the inner store's Quarantiner — quarantining is
// part of the recovery path under test, never faulted — or reports
// errNotQuarantined when the inner store has none.
func (f *Fault) Quarantine(key string) error {
	if q, ok := f.inner.(Quarantiner); ok {
		return q.Quarantine(key)
	}
	return errNotQuarantined
}
