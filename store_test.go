package shift

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"shift/internal/store"
)

// storeTestResult runs one small cell to get a realistic RunResult
// (non-zero floats and counters) for round-trip tests.
func storeTestResult(t testing.TB) (Config, RunResult) {
	t.Helper()
	o := engineTestOptions()
	cfg := o.config("Web Search", DesignSHIFT)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, r
}

// TestDiskStoreRoundTrip checks that a result survives the JSON
// encode/decode and a process restart (modeled by a second store handle
// on the same directory) bit-identically.
func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg, want := storeTestResult(t)
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup(cfg.Key()); ok {
		t.Fatal("hit in empty store")
	}
	s.Store(cfg.Key(), want)
	got, ok := s.Lookup(cfg.Key())
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot:  %+v\nwant: %+v", got, want)
	}
	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got2, ok := s2.Lookup(cfg.Key())
	if !ok || !reflect.DeepEqual(got2, want) {
		t.Fatalf("restart round trip mismatch: ok=%v", ok)
	}
	if s2.Len() != 1 {
		t.Errorf("Len = %d, want 1", s2.Len())
	}
	if e, e2 := s.Health().Errors, s2.Health().Errors; e != 0 || e2 != 0 {
		t.Errorf("healthy store reported errors: %d, %d", e, e2)
	}
}

// TestTieredStorePromotion checks the tier interplay: a cell written by
// another process (disk-only handle) is served from disk once, then
// from memory.
func TestTieredStorePromotion(t *testing.T) {
	dir := t.TempDir()
	cfg, want := storeTestResult(t)
	disk, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	disk.Store(cfg.Key(), want)

	tiered, err := NewTieredStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := tiered.Lookup(cfg.Key())
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatal("tiered store missed a cell present on disk")
	}
	hits, misses := tiered.Stats()
	if hits != 1 || misses != 0 {
		t.Errorf("after disk hit: hits=%d misses=%d, want 1/0", hits, misses)
	}
	// The disk hit was promoted: the second lookup is a memory hit.
	memHitsBefore, _ := tiered.mem.Stats()
	if _, ok := tiered.Lookup(cfg.Key()); !ok {
		t.Fatal("promoted cell missed")
	}
	if memHitsAfter, _ := tiered.mem.Stats(); memHitsAfter != memHitsBefore+1 {
		t.Error("second lookup went to disk instead of the memory tier")
	}
	if _, ok := tiered.Lookup("0123456789abcdef0123456789abcdef"); ok {
		t.Error("hit on an absent key")
	}
	if _, misses := tiered.Stats(); misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
}

// TestBlobStoreContract pins what every BlobStore constructor promises:
// a result survives the JSON encode/decode bit-identically, a second
// handle on the same directory or peer (a restarted process) sees it, a
// tiered handle serves it from memory after the first read, and every
// Lookup counts once, as a hit or a miss — also while a failing blob
// tier has the breaker open.
func TestBlobStoreContract(t *testing.T) {
	cfg, want := storeTestResult(t)
	key := cfg.Key()
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	onDir := func(open func(string) (*BlobStore, error)) func(*testing.T) func() *BlobStore {
		return func(t *testing.T) func() *BlobStore {
			dir := t.TempDir()
			return func() *BlobStore {
				s, err := open(dir)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
		}
	}
	onPeer := func(open func(string, *http.Client) *BlobStore) func(*testing.T) func() *BlobStore {
		return func(t *testing.T) func() *BlobStore {
			peer := httptest.NewServer(store.NewBlobHandler(store.NewMem()))
			t.Cleanup(peer.Close)
			return func() *BlobStore { return open(peer.URL, nil) }
		}
	}
	for _, c := range []struct {
		name    string
		tiered  bool
		backing func(*testing.T) func() *BlobStore // one backing store, a handle opener over it
	}{
		{"NewDiskStore", false, onDir(NewDiskStore)},
		{"NewTieredStore", true, onDir(NewTieredStore)},
		{"NewRemoteStore", false, onPeer(NewRemoteStore)},
		{"NewTieredRemoteStore", true, onPeer(NewTieredRemoteStore)},
		{"NewTieredStoreOver", true, func(*testing.T) func() *BlobStore {
			mem := store.NewMem()
			return func() *BlobStore { return NewTieredStoreOver(mem) }
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			open := c.backing(t)
			s := open()
			if _, ok := s.Lookup(key); ok {
				t.Fatal("hit in an empty store")
			}
			s.Store(key, want)
			got, ok := s.Lookup(key)
			gotJSON, _ := json.Marshal(got)
			if !ok || got != want || !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("round trip mismatch:\ngot:  %+v\nwant: %+v", got, want)
			}
			s2 := open()
			for i := 0; i < 2; i++ {
				memHits, _ := s2.mem.Stats()
				if got, ok := s2.Lookup(key); !ok || got != want {
					t.Fatalf("second handle, lookup %d: ok=%v, want the stored result", i, ok)
				}
				// A tiered handle promoted the first read: the second is a
				// memory hit.
				if after, _ := s2.mem.Stats(); c.tiered && after != memHits+int64(i) {
					t.Errorf("lookup %d: memory tier hits %d -> %d, want +%d", i, memHits, after, i)
				}
			}
			if s2.Len() != 1 {
				t.Errorf("Len = %d, want 1", s2.Len())
			}
			for i, st := range []*BlobStore{s, s2} {
				if h := st.Health(); h.Errors != 0 || h.Quarantined != 0 {
					t.Errorf("handle %d: healthy store reported %+v", i, h)
				}
			}
			if hits, misses := s.Stats(); hits != 1 || misses != 1 {
				t.Errorf("first handle: hits=%d misses=%d, want 1/1", hits, misses)
			}
			if hits, misses := s2.Stats(); hits != 2 || misses != 0 {
				t.Errorf("second handle: hits=%d misses=%d, want 2/0", hits, misses)
			}
		})
	}

	for _, tiered := range []bool{false, true} {
		fault := store.NewFault(store.NewMem(), store.FaultPlan{GetErrorRate: 1})
		s := newBlobStore(fault, tiered)
		const lookups = 21
		for i := 0; i < lookups; i++ {
			s.Lookup(key)
		}
		hits, misses := s.Stats()
		if hits+misses != lookups {
			t.Errorf("tiered=%v over a failing tier: hits+misses = %d+%d, want %d lookups", tiered, hits, misses, lookups)
		}
		if h := s.Health(); tiered && (h.BreakerState != store.BreakerOpen || h.MemOnlyOps == 0) {
			t.Errorf("tiered store over a failing tier: %+v, want the breaker open and lookups absorbed", h)
		}
	}
}

// stuckQuarantine is an in-memory blob tier whose quarantine move
// always fails.
type stuckQuarantine struct{ *store.Mem }

func (stuckQuarantine) Quarantine(string) error {
	return errors.New("rename: read-only file system")
}

// TestBlobLookupFailedQuarantine: a corrupt blob — one failing its CRC,
// one whose payload verifies but no longer decodes — whose quarantine
// move fails is a miss and a store error each, and no blob counts as
// quarantined.
func TestBlobLookupFailedQuarantine(t *testing.T) {
	mem := store.NewMem()
	if err := store.WithIntegrity(mem).Put("undecodable", []byte("not json")); err != nil {
		t.Fatal(err)
	}
	if err := mem.Put("bad-crc", []byte("{}\n#crc32c:00000000\n")); err != nil {
		t.Fatal(err)
	}
	s := newBlobStore(stuckQuarantine{mem}, false)
	for _, key := range []string{"undecodable", "bad-crc"} {
		if _, ok := s.Lookup(key); ok {
			t.Fatalf("%s: corrupt blob read as a hit", key)
		}
	}
	if h := s.Health(); h.Errors != 2 || h.Quarantined != 0 {
		t.Fatalf("health %+v, want 2 errors and nothing quarantined", h)
	}
}

// FuzzBlobLookup feeds arbitrary stored bytes — what a damaged disk or
// a remote peer may hand back — to Lookup through an untiered and a
// tiered BlobStore. It must never panic; a hit must re-store and read
// back equal; a miss on present bytes must count exactly one error; and
// the next Store must make the key read back (self-heal).
func FuzzBlobLookup(f *testing.F) {
	cfg, want := storeTestResult(f)
	key := cfg.Key()
	payload, err := json.Marshal(want)
	if err != nil {
		f.Fatal(err)
	}
	mem := store.NewMem()
	if err := store.WithIntegrity(mem).Put(key, payload); err != nil {
		f.Fatal(err)
	}
	footered, _, _ := mem.Get(key)
	flipped := bytes.Clone(footered)
	flipped[len(payload)/2] ^= 0x01
	for _, seed := range [][]byte{
		footered,
		payload, // legacy: no footer
		footered[:len(footered)-4],
		flipped,
		[]byte("{}"),
		[]byte("\x00\xffnot json"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, tiered := range []bool{false, true} {
			mem := store.NewMem()
			if err := mem.Put(key, raw); err != nil {
				t.Fatal(err)
			}
			s := newBlobStore(mem, tiered)
			got, ok := s.Lookup(key)
			if ok {
				s.Store(key, got)
				if again, ok := newBlobStore(mem, tiered).Lookup(key); !ok || again != got {
					t.Fatalf("tiered=%v: re-stored hit read back as (%+v, %v), want %+v", tiered, again, ok, got)
				}
				continue
			}
			if e := s.Health().Errors; e != 1 {
				t.Fatalf("tiered=%v: a miss on present bytes counted %d errors, want 1", tiered, e)
			}
			s.Store(key, want)
			if healed, ok := newBlobStore(mem, tiered).Lookup(key); !ok || healed != want {
				t.Fatalf("tiered=%v: key did not self-heal: (%+v, %v)", tiered, healed, ok)
			}
		}
	})
}

// TestNilStoresAreValid pins the documented nil-validity contract of
// every ResultStore backend.
func TestNilStoresAreValid(t *testing.T) {
	for name, s := range map[string]ResultStore{
		"ResultCache": (*ResultCache)(nil),
		"BlobStore":   (*BlobStore)(nil),
	} {
		if _, ok := s.Lookup("deadbeef"); ok {
			t.Errorf("%s: nil store hit", name)
		}
		s.Store("deadbeef", RunResult{})
		if s.Len() != 0 {
			t.Errorf("%s: nil store Len != 0", name)
		}
		if h, m := s.Stats(); h != 0 || m != 0 {
			t.Errorf("%s: nil store stats %d/%d", name, h, m)
		}
	}
	var s *BlobStore
	if s.Health() != (StoreHealth{}) || s.BlobTier() != nil {
		t.Error("nil BlobStore reports health or a blob tier")
	}
}

// TestEnginePersistsAcrossRestarts is the acceptance property of the
// disk store: a figure sweep run twice against the same cache
// directory, through two independent engines (two "processes"),
// simulates zero cells the second time and produces bit-identical
// output.
func TestEnginePersistsAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	o := engineTestOptions()
	o.Workloads = []string{"Web Search"}

	run := func() (*Figure9, EngineStats) {
		st, err := NewTieredStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		o.Engine = NewEngine(4, st)
		fig, err := RunFigure9(o)
		if err != nil {
			t.Fatal(err)
		}
		return fig, o.Engine.Stats()
	}
	first, coldStats := run()
	if coldStats.Simulated == 0 {
		t.Fatal("cold run simulated nothing")
	}
	second, warmStats := run()
	if warmStats.Simulated != 0 {
		t.Errorf("warm run simulated %d cells, want 0 (all served from disk)", warmStats.Simulated)
	}
	if warmStats.StoreHits == 0 || warmStats.StoreMisses != 0 {
		t.Errorf("warm run: %d store hits, %d misses; want hits and no misses", warmStats.StoreHits, warmStats.StoreMisses)
	}
	if warmStats.StoreCells != int(coldStats.Simulated) {
		t.Errorf("reopened store holds %d cells, want the %d the cold run simulated", warmStats.StoreCells, coldStats.Simulated)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("disk-served rerun differs from the original:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestEngineSingleFlight checks in-flight deduplication: concurrent
// identical RunOne calls on a shared engine share one simulation.
func TestEngineSingleFlight(t *testing.T) {
	o := engineTestOptions()
	cfg := o.config("Web Search", DesignSHIFT)
	e := NewEngine(2, NewResultCache())
	const n = 8
	results := make([]RunResult, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			r, err := e.RunOne(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
	// Dedup is documented as best-effort: a caller descheduled between
	// its store miss and its in-flight claim can become a second owner,
	// so asserting exactly one simulation would flake on a loaded
	// runner. The hard guarantees: every caller is accounted for by
	// exactly one of {simulate, dedup-wait, store hit}, at least one
	// simulation happened, and real sharing occurred.
	st := e.Stats()
	if st.Simulated+st.Deduped+st.StoreHits != n {
		t.Errorf("accounting: simulated=%d + deduped=%d + storeHits=%d != %d callers",
			st.Simulated, st.Deduped, st.StoreHits, n)
	}
	if st.Simulated < 1 || st.Simulated >= n {
		t.Errorf("simulated %d cells for %d concurrent identical calls, want 1 <= simulated < %d", st.Simulated, n, n)
	}
	if st.Inflight != 0 {
		t.Errorf("inflight = %d after quiescence, want 0", st.Inflight)
	}
}

// TestEngineSkippedCellWaiterFallback checks that one caller's bad
// grid cannot poison another caller's good cell: a failing RunAll still
// simulates every cell it claimed, so a concurrent waiter on its good
// cell receives that cell's result, never the stranger's error.
func TestEngineSkippedCellWaiterFallback(t *testing.T) {
	o := engineTestOptions()
	good := o.config("Web Search", DesignNextLine)
	bad := good
	bad.Workload = "No Such Workload"
	// A bound of 1 runs the grid's cells in index order on the calling
	// goroutine, so the bad cell (index 0) fails before the good cell
	// (index 1) runs.
	e := NewEngine(1, NewResultCache())
	var wg sync.WaitGroup
	const callers = 4
	runErrs := make([]error, callers)
	var gridErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, gridErr = e.RunAll([]Cell{cell(bad), cell(good)})
	}()
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, runErrs[i] = e.RunOne(good)
		}(i)
	}
	wg.Wait()
	if gridErr == nil {
		t.Error("grid with a bad cell succeeded")
	}
	for i, err := range runErrs {
		if err != nil {
			t.Errorf("caller %d inherited the failing grid's error: %v", i, err)
		}
	}
	if e.Stats().Inflight != 0 {
		t.Error("in-flight entries leaked")
	}
}

// TestEngineSingleFlightError checks that waiters observe the owner's
// failure rather than hanging, and that a failed cell is not stored.
func TestEngineSingleFlightError(t *testing.T) {
	o := engineTestOptions()
	bad := o.config("Web Search", DesignSHIFT)
	bad.Workload = "No Such Workload"
	st := NewResultCache()
	e := NewEngine(2, st)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.RunOne(bad)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Errorf("caller %d: bad workload accepted", i)
		}
	}
	if st.Len() != 0 {
		t.Errorf("failed cell was stored (%d entries)", st.Len())
	}
	if e.Stats().Inflight != 0 {
		t.Error("in-flight entries leaked after failures")
	}
}

// TestResultCacheBytes: a stored result costs a ResultCache at most 391 B
// of live heap — its key, its result and its map slot: 373 B when the
// cache was a plain map and the job registry kept results of its own —
// also after a registry reference to each has come and gone, so a
// long-lived shiftd whose registry has moved on holds no more than the
// store alone.
func TestResultCacheBytes(t *testing.T) {
	const n, limit = 2048, 391
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	c := NewResultCache()
	for i := 0; i < n; i++ {
		cfg := Config{Workload: "OLTP Oracle", Design: DesignSHIFT, Cores: 4, WarmupRecords: 500, MeasureRecords: int64(500 + i)}
		r := RunResult{Design: "SHIFT", Workload: "OLTP Oracle", MPKI: float64(i)}
		key := cfg.Key()
		c.Store(key, r)
		c.Release(c.Share(key, &r))
	}
	after := heap()
	if c.Len() != n || c.Shared() != 0 {
		t.Fatalf("the cache stores %d results and shares %d keys, want %d and 0", c.Len(), c.Shared(), n)
	}
	perResult := (int64(after) - int64(before)) / n
	t.Logf("a stored result retains %d B", perResult)
	if perResult > limit {
		t.Errorf("a stored result retains %d B, limit %d B", perResult, limit)
	}
}
