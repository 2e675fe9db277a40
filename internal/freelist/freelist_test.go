package freelist

import (
	"sync"
	"sync/atomic"
	"testing"
)

type table struct {
	id    int
	owner atomic.Int32
}

// countOf returns the count of kind.
func countOf(t *testing.T, kind string) Count {
	t.Helper()
	for _, c := range Counts() {
		if c.Kind == kind {
			return c
		}
	}
	t.Fatalf("no count for kind %q", kind)
	return Count{}
}

// take is a constructor's half: a table off f's lists, or a new one.
func (f *Keyed[K, V]) take(keys ...K) *V {
	if v := f.Get(keys...); v != nil {
		return v
	}
	return new(V)
}

func TestKeyedRoundTrip(t *testing.T) {
	f := New[int, table]("round trip")
	a, b := f.take(1), f.take(1)
	if a == b {
		t.Fatal("two Gets on an empty family handed out one table")
	}
	f.Put(1, a)
	f.Put(1, b)
	if f.Get(2) != nil {
		t.Fatal("Get returned a table of another geometry")
	}
	if got := f.Get(1); got != b {
		t.Fatalf("Get returned %p, want the last one handed back (%p)", got, b)
	}
	if got := f.Get(3, 1); got != a {
		t.Fatalf("Get(3, 1) returned %p, want the table of geometry 1 (%p)", got, a)
	}
	if f.Get(1) != nil {
		t.Fatal("one Put came back twice")
	}
	// Fresh: the two first Gets, the Get of 2 and the last Get of 1.
	if c := countOf(t, "round trip"); c.Fresh != 4 || c.Reused != 2 {
		t.Errorf("count %+v, want 4 fresh and 2 reused", c)
	}
}

// TestKeyedBoundsGeometries: however many geometries are handed back, a
// kind keeps the lists of maxGeometries of them, dropping the least
// recently used one at a time, and the list in use among them stays.
func TestKeyedBoundsGeometries(t *testing.T) {
	f := New[int, table]("geometries")
	const perGeometry = 3
	for k := 1; k <= 10*maxGeometries; k++ {
		for i := 0; i < perGeometry; i++ {
			f.Put(k, &table{id: k})
		}
		// Geometry 0 is the one in use: taken out and handed back
		// between every other geometry's hand-backs.
		f.Put(0, f.take(0))
		if n := len(f.lists); n > maxGeometries {
			t.Fatalf("after %d geometries: %d lists held, bound %d", k+1, n, maxGeometries)
		}
	}
	if _, ok := f.lists[0]; !ok {
		t.Error("the geometry in use was dropped")
	}
	last := 10 * maxGeometries
	for i := 0; i < perGeometry; i++ {
		if got := f.Get(last); got == nil || got.id != last {
			t.Fatalf("the latest geometry's tables were dropped: Get = %+v", got)
		}
	}
	if f.Get(last) != nil {
		t.Error("a list held more than was handed back")
	}
	if f.Get(1) != nil {
		t.Error("the oldest geometry's tables are still held")
	}
}

// TestGetFit: a list keyed by size class hands out its top table when it
// serves the caller, and drops it when it does not.
func TestGetFit(t *testing.T) {
	f := New[int, table]("fit")
	fits := func(need int) func(*table) bool { return func(v *table) bool { return v.id >= need } }
	f.Put(SizeClass(1000), &table{id: 1000})
	if got := f.GetFit(SizeClass(900), fits(900)); got == nil || got.id != 1000 {
		t.Fatalf("a 1000 did not serve a 900 of its class: %+v", got)
	}
	f.Put(SizeClass(1000), &table{id: 1000})
	if got := f.GetFit(SizeClass(1010), fits(1010)); got != nil {
		t.Fatalf("a 1000 served a 1010: %+v", got)
	}
	if f.Get(SizeClass(1000)) != nil {
		t.Error("the table that did not serve is still held")
	}
	if c := countOf(t, "fit"); c.Fresh != 2 || c.Reused != 1 {
		t.Errorf("count %+v, want 2 fresh and 1 reused", c)
	}
	for n, want := range map[int]int{1: 1, 2: 2, 3: 4, 1000: 1024, 1024: 1024, 1025: 2048} {
		if got := SizeClass(n); got != want {
			t.Errorf("SizeClass(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestUnusedListsDropped: a list none of the last keepBatches batches has
// used is dropped when a batch ends; the list every batch uses stays.
func TestUnusedListsDropped(t *testing.T) {
	f := New[int, table]("unused")
	batch := func(key int) {
		Begin()
		f.Put(key, f.take(key))
		End()
	}
	batch(1)
	for b := 1; b <= keepBatches; b++ {
		if _, ok := f.lists[1]; !ok {
			t.Fatalf("geometry 1 dropped %d batches after its last use", b-1)
		}
		batch(2)
	}
	if _, ok := f.lists[1]; ok {
		t.Error("geometry 1 is still held after batches that did not use it")
	}
	if _, ok := f.lists[2]; !ok {
		t.Error("the geometry every batch uses was dropped")
	}
}

// TestTrim: Trim empties every kind's lists, and TrimUnlessRunning does
// so only while no batch runs.
func TestTrim(t *testing.T) {
	f := New[int, table]("trim")
	g := New[string, table]("trim other")
	f.Put(1, f.take(1))
	g.Put("a", g.take("a"))
	Trim()
	if f.Get(1) != nil || g.Get("a") != nil {
		t.Error("a table survived Trim")
	}
	f.Put(1, f.take(1))
	Begin()
	TrimUnlessRunning()
	if v := f.Get(1); v == nil {
		t.Error("TrimUnlessRunning trimmed under a running batch")
	} else {
		f.Put(1, v)
	}
	End()
	TrimUnlessRunning()
	if f.Get(1) != nil {
		t.Error("a table survived TrimUnlessRunning with no batch running")
	}
}

// TestIdleTicks: the idle timer's check trims only after a whole period
// in which no list was touched and no simulation ran. It checks a timer
// of its own, so the lists' timer cannot tick in between.
func TestIdleTicks(t *testing.T) {
	f := New[int, table]("idle")
	f.Put(1, f.take(1))
	if !idleness.armed.Load() {
		t.Fatal("a Put left the idle timer unarmed")
	}
	var i idler
	i.armed.Store(true)
	i.touches.Add(1) // a Get or Put
	if i.expired() {
		t.Fatal("the lists expired over a period in which one was touched")
	}
	i.running.Add(1) // Begin
	for range 2 {
		if i.expired() {
			t.Fatal("the lists expired under a running simulation")
		}
	}
	i.running.Add(-1) // End
	i.touches.Add(1)
	if i.expired() {
		t.Fatal("the lists expired over a period in which a simulation ended")
	}
	if !i.expired() {
		t.Fatal("the lists did not expire over a period in which nothing happened")
	}
	if i.armed.Load() {
		t.Error("the expired timer is still armed")
	}
}

// TestConcurrentOwners: goroutines running batches that take, use and
// hand back tables of a few geometries, while another trims, never find a
// table that another goroutine owns.
func TestConcurrentOwners(t *testing.T) {
	f := New[int, table]("concurrent")
	const workers, rounds = 4, 2000
	stop := make(chan struct{})
	var trims sync.WaitGroup
	trims.Add(1)
	go func() {
		defer trims.Done()
		for {
			select {
			case <-stop:
				return
			default:
				Trim()
				TrimUnlessRunning()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := int32(1); w <= workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// batch takes, uses and hands back one table of key's geometry.
			batch := func(key int) bool {
				Begin()
				defer End()
				v := f.take(key, (key+1)%3)
				if !v.owner.CompareAndSwap(0, w) {
					t.Errorf("worker %d took a table worker %d owns", w, v.owner.Load())
					return false
				}
				v.id++ // the owner's write, which -race checks
				if !v.owner.CompareAndSwap(w, 0) {
					t.Errorf("worker %d's table was taken while it owned it", w)
					return false
				}
				f.Put(key, v)
				return true
			}
			for i := 0; i < rounds && batch(i%3); i++ {
			}
		}()
	}
	wg.Wait()
	close(stop)
	trims.Wait()
	if c := countOf(t, "concurrent"); c.Fresh+c.Reused != workers*rounds || c.Reused == 0 {
		t.Errorf("count %+v: want %d constructions, some reused", c, workers*rounds)
	}
}
