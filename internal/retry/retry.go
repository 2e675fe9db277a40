// Package retry is the program's one failure policy: which errors are
// worth another attempt (Transient) and how long to wait before it
// (Policy). Each caller keeps only its budget: how many attempts, from
// what base delay.
package retry

import (
	"errors"
	"math"
	"math/rand/v2"
	"time"
)

// Transient reports whether err's chain holds an error whose
// Transient() bool method returns true (the first error with the method
// decides): a failure of infrastructure, such as a timeout or a flaky
// transport, that a later attempt may not meet. Any other error is
// deterministic, and retrying it reproduces it.
func Transient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// Policy waits between attempts with full-jitter exponential backoff.
type Policy struct {
	// Base is the backoff unit; it must be positive.
	Base time.Duration
	// Sleep performs the wait (nil = time.Sleep; tests record waits).
	Sleep func(time.Duration)
}

// delay returns the wait before retry k (0-based): uniform in
// (0, Base<<k], held at the largest Duration once the shift overflows.
// It draws from math/rand/v2's runtime-seeded source, so callers that
// fail together, in one process or many, do not retry in lockstep.
func (p Policy) delay(k int) time.Duration {
	max := time.Duration(math.MaxInt64)
	if p.Base <= max>>uint(k) {
		max = p.Base << uint(k)
	}
	return time.Duration(rand.Int64N(int64(max))) + 1
}

// Do runs op, passing the 0-based attempt, until it succeeds, fails
// with an error transient rejects, or has run attempts times, waiting
// delay(k) before retry k; it returns op's last error.
func (p Policy) Do(attempts int, op func(attempt int) error, transient func(error) bool) error {
	sleep := p.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			sleep(p.delay(a - 1))
		}
		if err = op(a); err == nil || !transient(err) {
			return err
		}
	}
	return err
}
