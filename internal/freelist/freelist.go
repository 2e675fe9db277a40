// Package freelist recycles the simulator's big tables between cells.
//
// A simulated System models megabytes of hardware (Table I: 16 × 512 KB
// LLC banks, 32 KB L1-Is, 32 K-record histories) but a short cell writes
// only a sliver of it, so allocating and initialising the tables anew
// per cell costs far more than the cell's own work. Each table kind
// (cache, history, bpred, the simulator's lead log) keeps one Keyed
// here, a free list per geometry: a finished cell hands its tables
// back, the next constructor of the same geometry takes them out again
// and resets only what was written.
//
// What is kept, how much, and for how long is decided here, not by the
// collector:
//   - A list is a stack of what finished cells handed back, so it never
//     holds more tables of a geometry than were alive at once: one
//     batch's worth per engine worker.
//   - A kind keeps the lists of its maxGeometries most recently used
//     geometries. A hand-back of another geometry drops the least
//     recently used list, so a client sweeping history sizes cannot grow
//     a kind, and the lists still in use stay. A kind whose tables serve
//     any size up to their own (history buffers, lead logs: GetFit) keys
//     its lists by size class, so a client sweeping windows does not
//     spread it over geometries either.
//   - A list none of the last keepBatches batches begun has used is
//     dropped when a batch ends: what is kept is what the batches running
//     now, and the ones just before them, use. A service's jobs whose
//     windows grew into the next size class leave the smaller class
//     behind; this drops it.
//   - Trim empties every list. TrimUnlessRunning does so unless a batch
//     runs: the engine calls it when it answers a request wholly from
//     its store, since a process whose demand stored results meet holds
//     tables for nothing. The package calls it too, once no batch has
//     run and no list has been touched for a whole idle period of
//     seconds, so a process that has stopped simulating altogether
//     gives the memory back.
package freelist

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxGeometries bounds the lists one kind keeps. A batch's tables of one
// kind come in one to three geometries, and a sweep runs the same few
// again and again; a service client may submit arbitrarily many.
const maxGeometries = 8

// keepBatches is how many batches may begin without using a list before
// it is dropped. A sweep uses its lists every round of batches — the
// benchmark's grids run two a round — and a service whose clients moved
// on to other windows does not.
const keepBatches = 8

// idle is how long no batch may run and no list be touched before the
// lists are trimmed: long against any gap between the batches of a
// process that is simulating (tens of milliseconds in a sweep, the
// round trip of a job in a service), short against the time an idle
// process would otherwise hold a batch's tables.
const idle = 5 * time.Second

// Keyed is one table kind's free lists of *V, one per geometry key. Make
// it with New; it is safe for concurrent callers.
type Keyed[K comparable, V any] struct {
	kind string

	mu    sync.Mutex
	lists map[K]*list[V]
	// uses numbers the Gets and Puts, so that a list's last use orders
	// it against the others.
	uses          uint64
	fresh, reused int64
}

// list is one geometry's stack of tables, the number of its last use and
// how many batches had begun at it (see Begin).
type list[V any] struct {
	held      []*V
	lastUse   uint64
	lastBatch uint64
}

// family is what Trim, End and Counts see of a Keyed.
type family interface {
	trim()
	dropBefore(batch uint64)
	count() Count
}

// families is every kind New made.
var families struct {
	sync.Mutex
	all []family
}

// New returns the free lists of the table kind named kind, which Trim
// empties and Counts reports.
func New[K comparable, V any](kind string) *Keyed[K, V] {
	f := &Keyed[K, V]{kind: kind, lists: make(map[K]*list[V])}
	families.Lock()
	families.all = append(families.all, f)
	families.Unlock()
	return f
}

// Get takes the table handed back last off the list of the first of keys
// that holds one, or returns nil when none does: the caller then builds
// one, and it is counted fresh. A table taken is in whatever state its
// last owner left it: the caller resets it.
func (f *Keyed[K, V]) Get(keys ...K) *V {
	idleness.touches.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, k := range keys {
		if v := f.pop(k); v != nil {
			f.reused++
			return v
		}
	}
	f.fresh++
	return nil
}

// GetFit is Get for a kind whose lists are size classes: it takes the
// table handed back last off key's list when fits reports that it serves
// the caller, and drops it otherwise, so that a list holds what its class
// was last asked for.
func (f *Keyed[K, V]) GetFit(key K, fits func(*V) bool) *V {
	idleness.touches.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	if v := f.pop(key); v != nil && fits(v) {
		f.reused++
		return v
	}
	f.fresh++
	return nil
}

// pop takes the top of key's list, or returns nil. f.mu is held.
func (f *Keyed[K, V]) pop(key K) *V {
	l := f.lists[key]
	if l == nil || len(l.held) == 0 {
		return nil
	}
	f.uses++
	l.lastUse, l.lastBatch = f.uses, idleness.begun.Load()
	n := len(l.held) - 1
	v := l.held[n]
	l.held[n] = nil
	l.held = l.held[:n]
	return v
}

// Put hands v, whose geometry is key, back for a later Get. The caller
// must hold the only reference to v and must not use it again.
func (f *Keyed[K, V]) Put(key K, v *V) {
	f.mu.Lock()
	l := f.lists[key]
	if l == nil {
		if len(f.lists) >= maxGeometries {
			f.dropLeastRecent()
		}
		l = new(list[V])
		f.lists[key] = l
	}
	f.uses++
	l.lastUse, l.lastBatch = f.uses, idleness.begun.Load()
	l.held = append(l.held, v)
	f.mu.Unlock()
	idleness.touches.Add(1)
	if !idleness.armed.Load() {
		idleness.arm()
	}
}

// dropLeastRecent drops the list used longest ago. f.mu is held.
func (f *Keyed[K, V]) dropLeastRecent() {
	var oldest K
	first := true
	for k, l := range f.lists {
		if first || l.lastUse < f.lists[oldest].lastUse {
			oldest, first = k, false
		}
	}
	delete(f.lists, oldest)
}

// dropBefore drops the lists last used before batch (counted from 1)
// began.
func (f *Keyed[K, V]) dropBefore(batch uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, l := range f.lists {
		if l.lastBatch < batch {
			delete(f.lists, k)
		}
	}
}

func (f *Keyed[K, V]) trim() {
	f.mu.Lock()
	clear(f.lists)
	f.mu.Unlock()
}

func (f *Keyed[K, V]) count() Count {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Count{Kind: f.kind, Fresh: f.fresh, Reused: f.reused}
}

// SizeClass is the list key of a table that serves any size up to its
// own: n rounded up to a power of two.
func SizeClass(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// Count is one table kind's constructions so far: Fresh tables were
// built on new memory, Reused ones were taken off the kind's lists.
type Count struct {
	Kind          string
	Fresh, Reused int64
}

// Counts returns every kind's count, in kind order.
func Counts() []Count {
	families.Lock()
	defer families.Unlock()
	out := make([]Count, len(families.all))
	for i, f := range families.all {
		out[i] = f.count()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// Trim empties every list of every kind: what they held is left to the
// collector, and the next constructions build on new memory.
func Trim() {
	families.Lock()
	defer families.Unlock()
	for _, f := range families.all {
		f.trim()
	}
}

// TrimUnlessRunning is Trim unless a batch Begin marked is running, whose
// members would hand back to and take from the lists.
func TrimUnlessRunning() {
	if idleness.running.Load() == 0 {
		Trim()
	}
}

// Begin marks a batch of simulations — a user of the lists — as
// running, and End as finished. While one runs, only Trim empties the
// lists, however long it goes without taking or handing back a table;
// when one ends, every list none of the last keepBatches batches begun
// has used is dropped.
func Begin() {
	idleness.begun.Add(1)
	idleness.running.Add(1)
}

// End marks a batch Begin marked as finished.
func End() {
	i := &idleness
	i.running.Add(-1)
	i.touches.Add(1)
	if begun := i.begun.Load(); begun >= keepBatches {
		families.Lock()
		defer families.Unlock()
		for _, f := range families.all {
			f.dropBefore(begun - keepBatches + 1)
		}
	}
}

// idler is the idle timer's state. touches counts every Get, Put and End.
// A Put arms the timer when it is not armed; each tick, one idle period
// after the last, trims when no simulation runs and touches still reads
// what it read at the tick before, or else looks again a period later.
// The lists are thus trimmed between one and two idle periods after the
// last simulation ended, and no timer runs while nothing has been handed
// back since the last trim.
type idler struct {
	touches atomic.Uint64
	running atomic.Int64
	begun   atomic.Uint64 // batches begun
	armed   atomic.Bool
	mu      sync.Mutex
	seen    uint64 // touches at the last tick; mu guards it
}

// idleness is the lists' idle timer.
var idleness idler

// arm starts the idle timer unless it runs.
func (i *idler) arm() {
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.armed.Load() {
		i.armed.Store(true)
		i.seen = i.touches.Load()
		time.AfterFunc(idle, i.tick)
	}
}

// tick is the idle timer's check.
func (i *idler) tick() {
	if i.expired() {
		Trim()
		return
	}
	time.AfterFunc(idle, i.tick)
}

// expired reports whether the lists have been idle since the tick before,
// and if so disarms the timer before they are trimmed: a Put that comes
// after it arms a new one, and a Put that comes before it is trimmed.
func (i *idler) expired() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	n := i.touches.Load()
	if n != i.seen || i.running.Load() > 0 {
		i.seen = n
		return false
	}
	i.armed.Store(false)
	return true
}
