package cache

import (
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"shift/internal/trace"
	"shift/internal/workload"
)

// The ICache differential: an ICache, a replica fed the ways it reports,
// and the Reference driven with LookupInsert(b, false) over the same
// blocks must agree on every access's outcome — hit or miss, and the
// block a miss evicts — and on the resident blocks of every set, for any
// valid geometry, not only Table I's two ways.

// icacheDiff drives the three with blocks and compares them as it goes.
type icacheDiff struct {
	cfg       Config
	c, repl   *ICache
	ref       *Reference
	accesses  int
	evictions int      // misses that displaced a block
	set       []uint64 // the accessed set's tags before the access
}

func newICacheDiff(t testing.TB, cfg Config) *icacheDiff {
	t.Helper()
	c, err := NewICache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repl, err := NewICacheReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Replica() || !repl.Replica() {
		t.Fatal("constructors built the wrong kind")
	}
	return &icacheDiff{cfg: cfg, c: c, repl: repl, ref: MustNewReference(cfg)}
}

func (d *icacheDiff) access(t testing.TB, b trace.BlockAddr) {
	t.Helper()
	d.accesses++
	base := d.c.setBase(b)
	d.set = append(d.set[:0], d.c.tags[base:base+d.c.ways]...)
	want, _, wantEv, wantEvicted := d.ref.LookupInsert(b, false)
	hit, way := d.c.LookupInsert(b)
	if hit != want {
		t.Fatalf("%+v access %d, block %#x: hit %v, reference %v", d.cfg, d.accesses, b, hit, want)
	}
	if way < 0 || way >= d.cfg.Assoc {
		t.Fatalf("%+v access %d: way %d of %d", d.cfg, d.accesses, way, d.cfg.Assoc)
	}
	if !hit {
		// A miss fills over what its way held: nothing, or the victim.
		victim := d.set[way]
		if evicted := victim != 0; evicted != wantEvicted || evicted && trace.BlockAddr(victim-1) != wantEv.Block {
			t.Fatalf("%+v access %d, block %#x: evicted %v (block %#x), reference %v (block %#x)",
				d.cfg, d.accesses, b, evicted, victim-1, wantEvicted, wantEv.Block)
		}
		if wantEvicted {
			d.evictions++
		}
		d.repl.Put(b, way)
	}
	if !d.c.Contains(b) || !d.repl.Contains(b) {
		t.Fatalf("%+v access %d: block %#x not resident after its access", d.cfg, d.accesses, b)
	}
}

// check compares every set's resident blocks.
func (d *icacheDiff) check(t testing.TB) {
	t.Helper()
	sorted := func(bs []trace.BlockAddr) []trace.BlockAddr {
		sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
		return bs
	}
	for si := 0; si < d.cfg.sets(); si++ {
		want := sorted(d.ref.SetLRUOrder(si))
		if got := sorted(d.c.SetBlocks(si)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v set %d after %d accesses: holds %v, reference %v", d.cfg, si, d.accesses, got, want)
		}
		// Way for way, not merely as a set: the replica was told the ways.
		if got, want := d.repl.SetBlocks(si), d.c.SetBlocks(si); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v set %d after %d accesses: replica holds %v, the cache %v", d.cfg, si, d.accesses, got, want)
		}
	}
}

// randomGeometry draws a valid geometry of 1 to 32 ways.
func randomGeometry(rng *trace.RNG) Config {
	assoc, sets := 1+rng.Intn(32), 1<<rng.Intn(7)
	return Config{SizeBytes: sets * assoc * 64, Assoc: assoc, BlockBytes: 64, IndexShift: uint(rng.Intn(5))}
}

func TestICacheMatchesReference(t *testing.T) {
	p, err := workload.ByName("OLTP Oracle")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Cached(workload.Scaled(p, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	real, err := trace.Collect(trace.Limit(w.NewCoreReader(3), 20000), 20000)
	if err != nil {
		t.Fatal(err)
	}
	rng := trace.NewRNG(24)
	geometries := []Config{{SizeBytes: 32 << 10, Assoc: 2, BlockBytes: 64}}
	for len(geometries) < 40 {
		geometries = append(geometries, randomGeometry(rng))
	}
	for _, cfg := range geometries {
		lines := cfg.sets() * cfg.Assoc
		streams := map[string]func(i int) trace.BlockAddr{
			"real":  func(i int) trace.BlockAddr { return real[i].Block },
			"dense": func(int) trace.BlockAddr { return denseSpace(lines * 3).draw(rng) },
			"hot":   func(int) trace.BlockAddr { return denseSpace(cfg.Assoc * 8).draw(rng) },
			"wide":  wideStream(cfg, rng),
		}
		for name, next := range streams {
			d := newICacheDiff(t, cfg)
			for i := 0; i < len(real); i++ {
				d.access(t, next(i))
				if i%4096 == 0 {
					d.check(t)
				}
			}
			d.check(t)
			if name == "real" && d.evictions == 0 && lines < 1024 {
				t.Errorf("%+v: the real stream evicted nothing", cfg)
			}
			d.c.Release()
			d.repl.Release()
		}
	}
}

// wideStream draws full-width addresses (see wideSpace).
func wideStream(cfg Config, rng *trace.RNG) func(int) trace.BlockAddr {
	space := wideSpace(cfg, rng)
	return func(int) trace.BlockAddr { return space.draw(rng) }
}

// TestICacheClockWraps takes the 32-bit clock over its end: renumbering
// the stamps must keep every set's recency order, i.e. keep agreeing
// with the Reference.
func TestICacheClockWraps(t *testing.T) {
	rng := trace.NewRNG(5)
	for _, cfg := range []Config{
		{SizeBytes: 32 << 10, Assoc: 2, BlockBytes: 64},
		{SizeBytes: 4 * 7 * 64, Assoc: 7, BlockBytes: 64},
	} {
		d := newICacheDiff(t, cfg)
		draw := denseSpace(cfg.sets() * cfg.Assoc * 2).draw
		for i := 0; i < 5000; i++ {
			d.access(t, draw(rng))
		}
		// Skip ahead: shifting every stamp and the clock by the same
		// amount changes no comparison.
		jump := math.MaxUint32 - d.c.clock - 1000
		for i, s := range d.c.stamps {
			if s != 0 {
				d.c.stamps[i] = s + jump
			}
		}
		d.c.clock += jump
		before := d.c.Fingerprint()
		for i := 0; i < 5000; i++ {
			d.access(t, draw(rng))
		}
		d.check(t)
		if d.c.clock > 10000 {
			t.Errorf("%+v: clock at %d, never renumbered", cfg, d.c.clock)
		}
		if d.c.Fingerprint() == before {
			t.Errorf("%+v: fingerprint blind to 5000 accesses", cfg)
		}
	}
}

// TestICacheRecycled: what the constructors return after a Release is
// indistinguishable from a cache on fresh memory.
func TestICacheRecycled(t *testing.T) {
	cfg := Config{SizeBytes: 16 << 10, Assoc: 4, BlockBytes: 64}
	fresh := newICacheDiff(t, cfg)
	empty, emptyRepl := fresh.c.Fingerprint(), fresh.repl.Fingerprint()
	rng := trace.NewRNG(7)
	recycled := 0
	for round := 0; round < 50; round++ {
		d := newICacheDiff(t, cfg)
		if d.c == fresh.c || d.repl == fresh.repl {
			recycled++
		}
		if d.c.Fingerprint() != empty || d.repl.Fingerprint() != emptyRepl {
			t.Fatalf("round %d: a constructor returned a cache that differs from a fresh one", round)
		}
		for i := 0; i < 2000; i++ {
			d.access(t, denseSpace(1024).draw(rng))
		}
		d.check(t)
		fresh = d
		d.c.Release()
		d.repl.Release()
	}
	if recycled == 0 {
		t.Error("no constructor ever returned a released cache: recycling is not exercised")
	}
}

// TestICacheHostBytes is the footprint gate of the instruction cache: an
// 8-byte tag and a 4-byte stamp per modelled line, 8 on a replica.
func TestICacheHostBytes(t *testing.T) {
	cfg := Config{SizeBytes: 32 << 10, Assoc: 2, BlockBytes: 64, IndexShift: 1} // a geometry no other test releases
	for _, tc := range []struct {
		name    string
		build   func(Config) (*ICache, error)
		perLine int
	}{{"full", NewICache, 12}, {"replica", NewICacheReplica, 8}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := tc.build(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		lines := cfg.sets() * cfg.Assoc
		got, limit := after.TotalAlloc-before.TotalAlloc, uint64(lines*tc.perLine+256)
		t.Logf("%s: %d lines, %d B, %.2f B/line", tc.name, lines, got, float64(got)/float64(lines))
		if got > limit {
			t.Errorf("%s: %d lines allocate %d B, limit %d (%d B/line)", tc.name, lines, got, limit, tc.perLine)
		}
		runtime.KeepAlive(c)
	}
}

// FuzzICache is the differential over fuzzed geometries and access
// sequences: two bytes of data name a block of a 64 K-block space.
func FuzzICache(f *testing.F) {
	f.Add(uint8(1), uint8(8), uint8(0), []byte{0, 1, 0, 2, 1, 1, 0, 1})
	f.Add(uint8(31), uint8(0), uint8(4), []byte{9, 9, 8, 8, 9, 9, 7, 7})
	f.Fuzz(func(t *testing.T, assoc, setBits, shift uint8, data []byte) {
		cfg := Config{Assoc: int(assoc%32) + 1, BlockBytes: 64, IndexShift: uint(shift % 5)}
		cfg.SizeBytes = cfg.Assoc * 64 << (setBits % 7)
		d := newICacheDiff(t, cfg)
		for i := 0; i+1 < len(data); i += 2 {
			d.access(t, trace.BlockAddr(data[i])<<8|trace.BlockAddr(data[i+1]))
		}
		d.check(t)
	})
}

// BenchmarkICache is the per-access cost of the Table I instruction
// cache on a real stream, beside the Cache it replaced there.
func BenchmarkICache(b *testing.B) {
	p, err := workload.ByName("OLTP Oracle")
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.Cached(p)
	if err != nil {
		b.Fatal(err)
	}
	recs, err := trace.Collect(trace.Limit(w.NewCoreReader(3), 1<<18), 1<<18)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{SizeBytes: 32 << 10, Assoc: 2, BlockBytes: 64}
	b.Run("ICache", func(b *testing.B) {
		c, _ := NewICache(cfg)
		for i := 0; i < b.N; i++ {
			c.LookupInsert(recs[i&(1<<18-1)].Block)
		}
	})
	b.Run("Cache", func(b *testing.B) {
		c := MustNew(cfg)
		for i := 0; i < b.N; i++ {
			c.LookupInsert(recs[i&(1<<18-1)].Block, false)
		}
	})
}
