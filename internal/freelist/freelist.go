// Package freelist recycles the simulator's big tables between cells.
//
// A simulated System models megabytes of hardware (Table I: 16 × 512 KB
// LLC banks, 32 KB L1-Is, 32 K-record histories) but a short cell writes
// only a sliver of it, so allocating and initialising the tables anew
// per cell costs far more than the cell's own work. The table packages
// (cache, history, bpred) keep one free list per geometry here: a
// finished cell hands its tables back, the next constructor of the same
// geometry takes them out again and resets only what was written.
//
// Retention needs no setting. Each list is a sync.Pool, so tables that
// are not taken out again are dropped by the next two garbage
// collections — an idle or store-hit-only service returns the memory —
// and nothing is ever held beyond what finished cells handed back.
package freelist

import "sync"

// maxGeometries bounds the lists one Keyed keeps. A figure sweeps a
// dozen history sizes; a service client may submit arbitrarily many, and
// each list costs a few hundred bytes for good. Past the bound the lists
// are dropped and rebuilt by the geometries still in use.
const maxGeometries = 64

// Keyed is a family of free lists of *V, one per geometry key. The zero
// value is ready for use and safe for concurrent callers.
type Keyed[K comparable, V any] struct {
	mu    sync.Mutex
	lists map[K]*sync.Pool
}

// list returns key's free list, creating it if asked to.
func (f *Keyed[K, V]) list(key K, create bool) *sync.Pool {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.lists[key]
	if p == nil && create {
		if f.lists == nil || len(f.lists) >= maxGeometries {
			f.lists = make(map[K]*sync.Pool)
		}
		p = new(sync.Pool)
		f.lists[key] = p
	}
	return p
}

// Get takes a value of the given geometry off its free list, or returns
// nil when none is held. The value is in whatever state its last owner
// left it: the caller resets it.
func (f *Keyed[K, V]) Get(key K) *V {
	if p := f.list(key, false); p != nil {
		if v, ok := p.Get().(*V); ok {
			return v
		}
	}
	return nil
}

// Put hands v, whose geometry is key, back for a later Get. The caller
// must hold the only reference to v and must not use it again.
func (f *Keyed[K, V]) Put(key K, v *V) {
	f.list(key, true).Put(v)
}
