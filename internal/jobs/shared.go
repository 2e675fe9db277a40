package jobs

import (
	"encoding/json"
	"math"
	"sync"
	"sync/atomic"

	"shift"
)

// sharedResult is one finished result held once for every job cell that
// produced it: the canonical key string, the result and, once a second
// cell reuses it, its encoding. The pointer fields come first, so the
// collector scans an entry's first 48 bytes, not all of it.
type sharedResult struct {
	key string
	// encoded points at r's encoding/json bytes: set at the first reuse (a
	// replay; nil bytes if encoding/json rejects r), never for a result
	// only one cell produced. Written under the table's lock, read without
	// it.
	encoded atomic.Pointer[[]byte]
	r       shift.RunResult
	// idx is the entry's slot in the table's list.
	idx uint32
	// refs counts the finished cells of registry jobs that point at the
	// entry. Guarded by the table's lock.
	refs uint32
}

// sharedTable maps a content address to the result every finished cell
// with that key points at, so a replayed cell holds an index instead of
// its own copy of the result and key. An entry is reference-counted by
// the finished cells of the jobs in the registry: when the last of them
// leaves, the entry leaves the map and its slot goes on a free stack for
// the next fresh entry. So an index a registry job holds is always its
// own entry's. It is a plain map because go.mod's Go version has neither
// unique nor weak. mu is a leaf: nothing else is locked while it is held.
type sharedTable struct {
	mu    sync.Mutex
	byKey map[string]*sharedResult
	// list holds every entry at its idx, nil at a free slot.
	list []*sharedResult
	// free is the stack of free slots in list.
	free []uint32
}

// shareLocked returns the entry for a result r under key, with one more
// reference: the table's entry when its result is bit for bit r's, else
// a fresh one — entered in the map if the key has none yet. An entry's
// result is compared with == and its floats by their bits: == equates 0
// and -0, and never holds for a NaN, so such results are not shared, and
// a finished cell's bytes never change whatever results later arrive
// under its key. A reused entry gains its encoding the first time.
// Called with mu held.
func (t *sharedTable) shareLocked(key string, r *shift.RunResult) *sharedResult {
	s, ok := t.byKey[key]
	if ok && sameBits(&s.r, r) {
		if s.encoded.Load() == nil {
			b, _ := json.Marshal(&s.r) // nil if encoding/json rejects it
			s.encoded.Store(&b)
		}
		s.refs++
		return s
	}
	fresh := &sharedResult{key: key, r: *r, refs: 1}
	if n := len(t.free); n > 0 {
		fresh.idx, t.free = t.free[n-1], t.free[:n-1]
		t.list[fresh.idx] = fresh
	} else {
		fresh.idx = uint32(len(t.list))
		t.list = append(t.list, fresh)
	}
	if !ok {
		t.byKey[key] = fresh
	}
	return fresh
}

// releaseLocked drops one reference to s and, at the last, frees its
// slot and its key. Called with mu held.
func (t *sharedTable) releaseLocked(s *sharedResult) {
	if s.refs--; s.refs > 0 {
		return
	}
	t.list[s.idx] = nil
	t.free = append(t.free, s.idx)
	if t.byKey[s.key] == s {
		delete(t.byKey, s.key)
	}
}

// share is shareLocked for one result.
func (t *sharedTable) share(key string, r shift.RunResult) *sharedResult {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.shareLocked(key, &r)
}

// entries returns the table's entries: any index a registry job holds is
// in range and its own entry's.
func (t *sharedTable) entries() []*sharedResult {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.list
}

// len returns the number of keys with an entry.
func (t *sharedTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byKey)
}

// sameBits reports whether a == b and every float of a has the bits of
// b's: == alone equates 0 and -0, which encode differently.
func sameBits(a, b *shift.RunResult) bool {
	if *a != *b {
		return false
	}
	fa, fb := floats(a), floats(b)
	for i := range fa {
		if math.Float64bits(*fa[i]) != math.Float64bits(*fb[i]) {
			return false
		}
	}
	return true
}

// floats points at every float field of r (TestSharedResultsCompareBits
// checks that the list is complete).
func floats(r *shift.RunResult) [11]*float64 {
	return [...]*float64{
		&r.Throughput, &r.MPKI, &r.FetchStallFraction, &r.BranchAccuracy,
		&r.MissCoverage, &r.AccessCoverage, &r.SampleConfidence,
		&r.MPKIStdErr, &r.MPKICI, &r.ThroughputStdErr, &r.ThroughputCI,
	}
}
