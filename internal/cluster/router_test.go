package cluster

import (
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
)

// RoundRobinRouter ignores the stream key and deals batches out in
// rotation. Simple and perfectly balanced, but stream-key locality is
// lost: the same workload's batches land on different workers across
// sweeps, so worker-side memoization and trace-stream reuse suffer.
// Tests use it where every worker must get work.
type RoundRobinRouter struct {
	next atomic.Uint64
}

// Pick rotates the candidate order by an advancing counter.
func (r *RoundRobinRouter) Pick(_ string, candidates []*Member) []*Member {
	if len(candidates) == 0 {
		return nil
	}
	// Sort by address first so rotation is over a stable ring, not over
	// whatever order membership happened to arrive in.
	ring := append([]*Member(nil), candidates...)
	sort.Slice(ring, func(i, j int) bool { return ring[i].Addr() < ring[j].Addr() })
	k := int(r.next.Add(1)-1) % len(ring)
	out := make([]*Member, 0, len(ring))
	out = append(out, ring[k:]...)
	out = append(out, ring[:k]...)
	return out
}

func members(addrs ...string) []*Member {
	out := make([]*Member, len(addrs))
	for i, a := range addrs {
		out[i] = &Member{addr: a, state: Up}
	}
	return out
}

func addrs(ms []*Member) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.addr
	}
	return out
}

// TestAffinityStableFailover checks the two rendezvous properties the
// fabric relies on: the same stream key always orders the same
// membership identically (stability), and removing the preferred
// worker leaves the remaining order unchanged (minimal-disruption
// failover: only the dead worker's keys move).
func TestAffinityStableFailover(t *testing.T) {
	r := &AffinityRouter{}
	ms := members("http://a:1", "http://b:1", "http://c:1", "http://d:1")
	keys := []string{"s1|oltp", "s1|web", "s1|media", "s1|dss"}
	for _, k := range keys {
		first := addrs(r.Pick(k, ms))
		if again := addrs(r.Pick(k, ms)); !reflect.DeepEqual(first, again) {
			t.Fatalf("key %q: unstable order %v then %v", k, first, again)
		}
		// Drop the winner: the failover order must be the old order's
		// tail, exactly.
		survivors := r.Pick(k, ms)[1:]
		failover := addrs(r.Pick(k, survivors))
		if !reflect.DeepEqual(failover, addrs(survivors)) {
			t.Fatalf("key %q: failover order %v, want tail %v", k, failover, addrs(survivors))
		}
	}
	// Distinct keys should not all pile on one worker.
	firsts := map[string]bool{}
	for _, k := range keys {
		firsts[r.Pick(k, ms)[0].addr] = true
	}
	if len(firsts) < 2 {
		t.Fatalf("4 keys all routed to one of 4 workers: %v", firsts)
	}
}

func TestRoundRobinRotates(t *testing.T) {
	r := &RoundRobinRouter{}
	ms := members("http://b:1", "http://a:1", "http://c:1")
	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		order := r.Pick("ignored", ms)
		if len(order) != 3 {
			t.Fatalf("Pick returned %d members, want 3", len(order))
		}
		seen[order[0].addr]++
	}
	for _, m := range ms {
		if seen[m.addr] != 2 {
			t.Fatalf("uneven rotation: %v", seen)
		}
	}
	if r.Pick("x", nil) != nil {
		t.Fatal("Pick with no candidates returned members")
	}
}
