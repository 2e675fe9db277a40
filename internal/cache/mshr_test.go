package cache

import (
	"reflect"
	"testing"

	"shift/internal/trace"
)

func TestMSHRBasic(t *testing.T) {
	m := NewMSHRs(4)
	if m.Cap() != 4 {
		t.Fatalf("Cap = %d", m.Cap())
	}
	if m.Contains(1) {
		t.Fatal("lookup in empty MSHRs hit")
	}
	m.Allocate(1, 100, 120)
	if r, ok := m.readyOf(1); !ok || r != 120 {
		t.Fatalf("ready = %d, %v; want 120 (accepted at once)", r, ok)
	}
	m.Complete(1)
	if m.Contains(1) {
		t.Fatal("entry survived Complete")
	}
}

func TestMSHRDuplicateKeepsEarlier(t *testing.T) {
	m := NewMSHRs(4)
	m.Allocate(1, 0, 50)
	m.Allocate(1, 0, 80) // later completion must not extend
	if r, _ := m.readyOf(1); r != 50 {
		t.Errorf("ready = %d, want 50", r)
	}
	m.Allocate(1, 0, 30) // earlier completion wins
	if r, _ := m.readyOf(1); r != 30 {
		t.Errorf("ready = %d, want 30", r)
	}
}

func TestMSHRFullWithCompleted(t *testing.T) {
	m := NewMSHRs(2)
	m.Allocate(1, 0, 5)
	m.Allocate(2, 0, 500)
	// At now=10, entry 1 has completed; allocation should proceed at 10.
	m.Allocate(3, 10, 100)
	if r, _ := m.readyOf(3); r != 100 {
		t.Errorf("ready at %d, want 100 (accepted at 10)", r)
	}
	if m.InFlight() != 2 {
		t.Errorf("InFlight = %d, want 2", m.InFlight())
	}
}

func TestMSHRFullStalls(t *testing.T) {
	m := NewMSHRs(2)
	m.Allocate(1, 0, 40)
	m.Allocate(2, 0, 60)
	// Nothing completed at now=10: must wait until the earliest (40).
	m.Allocate(3, 10, 100)
	if r, _ := m.readyOf(3); r != 130 {
		t.Errorf("ready at %d, want 130 (accepted at 40)", r)
	}
}

// TestMSHRFullDelaysFill: a prefetch that finds a tiny file full of
// fills still in flight waits for the earliest of them to complete, and
// its own fill is timed from then, not from its issue cycle.
func TestMSHRFullDelaysFill(t *testing.T) {
	m := NewMSHRs(2)
	m.Allocate(1, 0, 40)
	m.Allocate(2, 0, 60)
	m.Allocate(3, 10, 10+90)
	if ready, _ := m.readyOf(3); ready != 40+90 {
		t.Errorf("the delayed fill completes at %d, want %d (accepted at 40, 90 cycles of latency)", ready, 40+90)
	}
	// A request the file accepts at once keeps its own timing.
	m.Expire(200)
	m.Allocate(4, 200, 230)
	if ready, _ := m.readyOf(4); ready != 230 {
		t.Errorf("an undelayed fill completes at %d, want 230", ready)
	}
}

func TestMSHRExpire(t *testing.T) {
	m := NewMSHRs(8)
	m.Allocate(1, 0, 10)
	m.Allocate(2, 0, 20)
	m.Allocate(3, 0, 30)
	m.Expire(20)
	if m.InFlight() != 1 {
		t.Errorf("InFlight = %d, want 1", m.InFlight())
	}
	if !m.Contains(3) {
		t.Error("unexpired entry dropped")
	}
}

func TestMSHRZeroCap(t *testing.T) {
	m := NewMSHRs(0)
	if m.Cap() != 1 {
		t.Errorf("zero capacity should clamp to 1, got %d", m.Cap())
	}
}

// TestMSHRTake checks the fused Lookup+Complete.
func TestMSHRTake(t *testing.T) {
	m := NewMSHRs(4)
	m.Allocate(7, 0, 30)
	if r, ok := m.Take(7); !ok || r != 30 {
		t.Fatalf("Take(7) = %d,%v; want 30,true", r, ok)
	}
	if m.Contains(7) {
		t.Fatal("entry survived Take")
	}
	if _, ok := m.Take(7); ok {
		t.Fatal("Take of absent entry succeeded")
	}
}

// mshrTrace replays a seeded operation mix and returns the surviving
// (block, ready) set plus the ready cycle each allocation left its block
// with — everything observable about the file.
func mshrTrace(seed int64) (entries map[trace.BlockAddr]int64, readies []int64) {
	rng := trace.NewRNG(seed)
	m := NewMSHRs(8)
	now := int64(0)
	for op := 0; op < 5000; op++ {
		now += int64(rng.Intn(3))
		b := trace.BlockAddr(rng.Intn(32))
		switch rng.Intn(4) {
		case 0, 1:
			// Ties on the ready cycle are common by construction: ready
			// is drawn from a tiny window, so reclaim's victim choice is
			// exercised on equal completion cycles.
			m.Allocate(b, now, now+int64(rng.Intn(4)))
			r, _ := m.readyOf(b)
			readies = append(readies, r)
		case 2:
			m.Complete(b)
		case 3:
			m.Expire(now)
		}
	}
	entries = make(map[trace.BlockAddr]int64)
	for b := trace.BlockAddr(0); b < 32; b++ {
		if r, ok := m.readyOf(b); ok {
			entries[b] = r
		}
	}
	return entries, readies
}

// TestMSHRDeterministicVictims runs two identically-seeded operation
// sequences and requires identical surviving entries and ready
// cycles. The map-backed implementation this replaced picked reclaim
// victims in Go's randomized map iteration order, so ties on the ready
// cycle retired a different entry from run to run; the dense ring makes
// retirement order a pure function of the operation sequence.
func TestMSHRDeterministicVictims(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		e1, a1 := mshrTrace(seed)
		e2, a2 := mshrTrace(seed)
		if !reflect.DeepEqual(e1, e2) {
			t.Fatalf("seed %d: surviving entries diverged:\n%v\n%v", seed, e1, e2)
		}
		if !reflect.DeepEqual(a1, a2) {
			t.Fatalf("seed %d: ready cycles diverged", seed)
		}
	}
}

// TestMSHRReclaimPrefersCompleted verifies that a full file retires a
// completed entry (accepting at now) before stalling on pending ones,
// and that the deterministic victim is the earliest completion.
func TestMSHRReclaimPrefersCompleted(t *testing.T) {
	m := NewMSHRs(3)
	m.Allocate(1, 0, 5)
	m.Allocate(2, 0, 7)
	m.Allocate(3, 0, 500)
	// At now=10, entries 1 and 2 have completed; the earliest (1) is
	// retired and the request proceeds immediately.
	m.Allocate(4, 10, 100)
	if r, _ := m.readyOf(4); r != 100 {
		t.Fatalf("ready at %d, want 100 (accepted at 10)", r)
	}
	if m.Contains(1) {
		t.Fatal("earliest completed entry not retired")
	}
	if !m.Contains(2) {
		t.Fatal("later completed entry wrongly retired")
	}
}

// TestMSHRExpireKeepsMinimum drives interleaved allocate/expire cycles
// and cross-checks InFlight against a naive model.
func TestMSHRExpireKeepsMinimum(t *testing.T) {
	rng := trace.NewRNG(3)
	m := NewMSHRs(16)
	naive := map[trace.BlockAddr]int64{}
	now := int64(0)
	for op := 0; op < 3000; op++ {
		now += int64(rng.Intn(2))
		b := trace.BlockAddr(rng.Intn(64))
		if rng.Bool(0.6) && len(naive) < 16 {
			ready := now + int64(rng.Intn(20))
			if cur, ok := naive[b]; !ok || ready < cur {
				naive[b] = ready
			}
			m.Allocate(b, now, ready)
		} else {
			m.Expire(now)
			for nb, r := range naive {
				if r <= now {
					delete(naive, nb)
				}
			}
		}
		if m.InFlight() != len(naive) {
			t.Fatalf("op %d: InFlight %d, naive %d", op, m.InFlight(), len(naive))
		}
	}
}

// readyOf, Complete, InFlight and Cap serve only these tests: the
// simulator asks only whether a fill is in flight, retires an entry with
// Take and never reads the file's size.

// readyOf returns the ready cycle of an in-flight fill for b, if any.
func (m *MSHRs) readyOf(b trace.BlockAddr) (ready int64, ok bool) {
	i := m.find(b)
	if i < 0 {
		return 0, false
	}
	return m.ready[i], true
}

// Complete removes b's entry once the fill has been consumed.
func (m *MSHRs) Complete(b trace.BlockAddr) {
	if i := m.find(b); i >= 0 {
		m.removeAt(i)
	}
}

// InFlight returns the number of live entries.
func (m *MSHRs) InFlight() int { return m.n }

// Cap returns the configured capacity.
func (m *MSHRs) Cap() int { return m.cap }
