package cache

import "shift/internal/trace"

// MSHRs track in-flight fills for the timing model. Each entry records the
// cycle at which the fill completes; a demand access to an in-flight block
// stalls only for the remaining latency (the partial-hiding case of
// prefetches that were issued but have not yet arrived).
//
// Capacity mirrors Table I (32 MSHRs for the L1s, 64 for L2 banks); when
// full, the oldest completed entry is retired first, and if none has
// completed, the new request must wait for the earliest completion: its
// fill is timed from that cycle, the one Allocate returns as the
// earliest issue time.
//
// The file is a dense ring of in-flight entries (two parallel arrays,
// swap-remove compaction) with a cached minimum completion cycle:
//
//   - Expire, called once per simulated record, is a single compare when
//     nothing has completed — amortized O(1) instead of the full-map
//     sweep the previous map-backed implementation performed per record;
//   - victim selection on reclaim is fully deterministic: the earliest
//     completion wins and ties break on the lowest slot index, where the
//     map-backed version retired whichever entry Go's randomized map
//     iteration happened to visit first;
//   - all other operations are short scans over the dense arrays (the
//     file holds at most 32–64 entries and typically far fewer in
//     flight, so a scan of two hot cache lines beats pointer-heavy
//     structures), and nothing allocates after construction.
type MSHRs struct {
	cap int
	// blocks/ready are the live entries, dense in [0, n). Slot order is
	// deterministic (insertion order permuted by swap-removes, which are
	// themselves deterministic).
	blocks []trace.BlockAddr
	ready  []int64
	n      int
	// minReady caches min(ready[:n]) (maxReady when empty) so the
	// per-record Expire call usually costs one compare.
	minReady int64
}

const maxReady = int64(^uint64(0) >> 1)

// NewMSHRs builds an MSHR file with the given capacity.
func NewMSHRs(capacity int) *MSHRs {
	if capacity <= 0 {
		capacity = 1
	}
	return &MSHRs{
		cap:      capacity,
		blocks:   make([]trace.BlockAddr, capacity),
		ready:    make([]int64, capacity),
		minReady: maxReady,
	}
}

// find returns the slot of block b, or -1.
func (m *MSHRs) find(b trace.BlockAddr) int {
	for i, blk := range m.blocks[:m.n] {
		if blk == b {
			return i
		}
	}
	return -1
}

// syncMin recomputes the cached minimum completion cycle.
func (m *MSHRs) syncMin() {
	min := maxReady
	for _, r := range m.ready[:m.n] {
		if r < min {
			min = r
		}
	}
	m.minReady = min
}

// removeAt swap-removes slot i and refreshes the cached minimum.
func (m *MSHRs) removeAt(i int) {
	last := m.n - 1
	r := m.ready[i]
	m.blocks[i] = m.blocks[last]
	m.ready[i] = m.ready[last]
	m.n = last
	if r <= m.minReady {
		m.syncMin()
	}
}

// Contains reports whether a fill for b is in flight.
func (m *MSHRs) Contains(b trace.BlockAddr) bool { return m.find(b) >= 0 }

// Allocate records a fill for b issued at now and completing at ready.
// If b is already in flight the earlier completion wins. A request that
// finds the file full of still-pending entries is accepted only when the
// earliest of them completes, and completes that much later.
func (m *MSHRs) Allocate(b trace.BlockAddr, now, ready int64) {
	if i := m.find(b); i >= 0 {
		if ready < m.ready[i] {
			m.ready[i] = ready
			if ready < m.minReady {
				m.minReady = ready
			}
		}
		return
	}
	if m.n >= m.cap {
		ready += m.reclaim(now) - now
	}
	m.blocks[m.n] = b
	m.ready[m.n] = ready
	m.n++
	if ready < m.minReady {
		m.minReady = ready
	}
}

// reclaim retires the earliest-completing entry (ties: lowest slot, a
// deterministic choice). If it has already completed the new request
// proceeds at now; otherwise the request waits for that completion cycle.
func (m *MSHRs) reclaim(now int64) int64 {
	victim, earliest := 0, m.ready[0]
	for i := 1; i < m.n; i++ {
		if m.ready[i] < earliest {
			victim, earliest = i, m.ready[i]
		}
	}
	accepted := now
	if earliest > now {
		accepted = earliest
	}
	m.removeAt(victim)
	return accepted
}

// Take returns the ready cycle of an in-flight fill for b and retires
// the entry, in a single probe.
func (m *MSHRs) Take(b trace.BlockAddr) (ready int64, ok bool) {
	i := m.find(b)
	if i < 0 {
		return 0, false
	}
	ready = m.ready[i]
	m.removeAt(i)
	return ready, true
}

// Expire drops all entries that completed at or before now. Calling it
// periodically keeps the file small without changing semantics; the
// cached minimum makes the common nothing-completed call a single
// compare.
func (m *MSHRs) Expire(now int64) {
	if m.minReady > now {
		return
	}
	min := maxReady
	for i := 0; i < m.n; {
		if m.ready[i] <= now {
			last := m.n - 1
			m.blocks[i] = m.blocks[last]
			m.ready[i] = m.ready[last]
			m.n = last
			continue // re-examine the swapped-in entry
		}
		if m.ready[i] < min {
			min = m.ready[i]
		}
		i++
	}
	m.minReady = min
}
