package retry

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"
)

// flaky is an error whose Transient method reports its value.
type flaky bool

func (f flaky) Error() string   { return fmt.Sprintf("flaky(%v)", bool(f)) }
func (f flaky) Transient() bool { return bool(f) }

// recorder returns a Policy over base whose waits land in the returned
// slice instead of being slept.
func recorder(base time.Duration) (Policy, *[]time.Duration) {
	var waits []time.Duration
	return Policy{Base: base, Sleep: func(d time.Duration) { waits = append(waits, d) }}, &waits
}

func TestDelayStaysInItsRange(t *testing.T) {
	p := Policy{Base: time.Millisecond}
	for k := 0; k <= 8; k++ {
		max := time.Millisecond << k
		for i := 0; i < 1000; i++ {
			if d := p.delay(k); d <= 0 || d > max {
				t.Fatalf("Delay(%d) = %v, want in (0, %v]", k, d, max)
			}
		}
	}
	for _, k := range []int{63, 70} {
		if d := p.delay(k); d <= 0 {
			t.Fatalf("Delay(%d) = %v, want > 0", k, d)
		}
	}
}

func TestDoStops(t *testing.T) {
	for _, tc := range []struct {
		name  string
		errs  []error // op's result per attempt; nil past the end
		calls int
		want  error
	}{
		{"first success", []error{flaky(true), nil, flaky(true)}, 2, nil},
		{"first deterministic error", []error{flaky(true), flaky(false), flaky(true)}, 2, flaky(false)},
		{"last attempt", []error{flaky(true), flaky(true), flaky(true), flaky(true)}, 3, flaky(true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, waits := recorder(time.Millisecond)
			calls := 0
			err := p.Do(3, func(attempt int) error {
				if attempt != calls {
					t.Errorf("attempt %d passed on call %d", attempt, calls)
				}
				calls++
				return tc.errs[attempt]
			}, Transient)
			if err != tc.want || calls != tc.calls || len(*waits) != tc.calls-1 {
				t.Fatalf("Do = %v after %d calls and %d waits; want %v after %d calls and %d waits",
					err, calls, len(*waits), tc.want, tc.calls, tc.calls-1)
			}
		})
	}
}

func TestTransientSeesThroughWrapping(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("plain"), false},
		{flaky(false), false},
		{flaky(true), true},
		{fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", flaky(true))), true},
		{fmt.Errorf("outer: %v", flaky(true)), false},
	} {
		if got := Transient(tc.err); got != tc.want {
			t.Errorf("Transient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestIndependentPoliciesDoNotShareASchedule: two policies built alike
// wait different schedules, so processes that fail together do not
// retry in lockstep.
func TestIndependentPoliciesDoNotShareASchedule(t *testing.T) {
	schedule := func() []time.Duration {
		p, waits := recorder(time.Millisecond)
		p.Do(9, func(int) error { return flaky(true) }, Transient)
		return *waits
	}
	a, b := schedule(), schedule()
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("schedules of %d and %d waits, want 8 each", len(a), len(b))
	}
	if slices.Equal(a, b) {
		t.Fatalf("two policies waited the same schedule %v", a)
	}
}
