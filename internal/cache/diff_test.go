package cache

import (
	"math/bits"
	"reflect"
	"sort"
	"testing"

	"shift/internal/trace"
)

// The differential test drives the optimized Cache and the naive
// Reference with identical randomized operation sequences and requires
// identical observable behavior at every step: operation results (hits,
// wasPrefetch, evictions and their metadata), Stats, membership, pointer
// tags, pin/valid counts, and per-set LRU order. Way placement is the
// only internal freedom the optimized implementation has, and it is
// unobservable through the API.

// diffConfigs covers both internal layouts: linear scan + stamp victims
// (low assoc, with and without the LLC-style IndexShift) and hash index
// + recency lists (high assoc, including the fully-associative prefetch
// buffer shape).
func diffConfigs() []Config {
	return []Config{
		{SizeBytes: 8 * 2 * 64, Assoc: 2, BlockBytes: 64, TagPointers: true},
		{SizeBytes: 4 * 4 * 64, Assoc: 4, BlockBytes: 64},
		{SizeBytes: 8 * 16 * 64, Assoc: 16, BlockBytes: 64, TagPointers: true, IndexShift: 4},
		{SizeBytes: 64 * 64, Assoc: 64, BlockBytes: 64},
	}
}

// addrSpace draws the block addresses of a differential run; pinSpan
// is how long a pinned range may be to hold a few of them.
type addrSpace struct {
	draw    func(rng *trace.RNG) trace.BlockAddr
	pinSpan int
}

// denseSpace draws from [0, blocks): every set is reached, and the
// address bits above the set index stay near zero.
func denseSpace(blocks int) addrSpace {
	return addrSpace{func(rng *trace.RNG) trace.BlockAddr { return trace.BlockAddr(rng.Intn(blocks)) }, blocks / 4}
}

// wideSpace draws addresses that use all 34 bits — the Reference keeps
// them whole, an unlisted Cache only a compressed tag it must put back
// together with the set index for Evicted.Block and SetLRUOrder. Four
// sets (the first two, the middle, the last) each see about three times
// the blocks they have ways: random high parts plus the all-ones one,
// over both extremes of the bits below the set index. A pinned range
// reaches at most the same high part in the next set.
func wideSpace(cfg Config, rng *trace.RNG) addrSpace {
	tagShift := cfg.IndexShift + uint(bits.Len(uint(cfg.sets()-1)))
	maxHi := uint64(trace.MaxBlockAddr) >> tagShift
	his := []uint64{maxHi}
	for len(his) < 3*cfg.Assoc/2 {
		his = append(his, rng.Uint64()&maxHi)
	}
	sets := []uint64{0, 1 % uint64(cfg.sets()), uint64(cfg.sets() / 2), uint64(cfg.sets() - 1)}
	return addrSpace{func(rng *trace.RNG) trace.BlockAddr {
		lo := uint64(rng.Intn(2)) * (1<<cfg.IndexShift - 1)
		return trace.BlockAddr(his[rng.Intn(len(his))]<<tagShift | sets[rng.Intn(len(sets))]<<cfg.IndexShift | lo)
	}, 2 << cfg.IndexShift}
}

// pinSome pins, in both implementations, a short range from a drawn
// address on (as virtualized SHIFT pins its history range in every LLC
// bank): a few ways of a set at most, so fills still evict.
func pinSome(rng *trace.RNG, opt *Cache, ref *Reference, space addrSpace) {
	lo := space.draw(rng)
	hi := lo + trace.BlockAddr(rng.Intn(space.pinSpan)+1)
	opt.PinRange(lo, hi)
	ref.PinRange(lo, hi)
}

// diffOp applies one random operation to both implementations and fails
// on any observable divergence.
func diffOp(t *testing.T, rng *trace.RNG, opt *Cache, ref *Reference, space addrSpace) {
	t.Helper()
	b := space.draw(rng)
	switch rng.Intn(8) {
	case 0:
		oh, op := opt.Lookup(b)
		rh, rp := ref.Lookup(b)
		if oh != rh || op != rp {
			t.Fatalf("Lookup(%d): (%v,%v) vs reference (%v,%v)", b, oh, op, rh, rp)
		}
	case 1:
		pf := rng.Bool(0.5)
		oe, ook := opt.Insert(b, pf)
		re, rok := ref.Insert(b, pf)
		if ook != rok || oe != re {
			t.Fatalf("Insert(%d,%v): (%+v,%v) vs reference (%+v,%v)", b, pf, oe, ook, re, rok)
		}
	case 2:
		if o, r := opt.Invalidate(b), ref.Invalidate(b); o != r {
			t.Fatalf("Invalidate(%d): %v vs reference %v", b, o, r)
		}
	case 3:
		oh, op := opt.Extract(b)
		rh, rp := ref.Extract(b)
		if oh != rh || op != rp {
			t.Fatalf("Extract(%d): (%v,%v) vs reference (%v,%v)", b, oh, op, rh, rp)
		}
	case 4:
		pf := rng.Bool(0.5)
		oh, op, oe, ook := opt.LookupInsert(b, pf)
		rh, rp, re, rok := ref.LookupInsert(b, pf)
		if oh != rh || op != rp || ook != rok || oe != re {
			t.Fatalf("LookupInsert(%d,%v): (%v,%v,%+v,%v) vs reference (%v,%v,%+v,%v)",
				b, pf, oh, op, oe, ook, rh, rp, re, rok)
		}
	case 5:
		ptr := uint32(rng.Intn(1 << 15))
		if o, r := opt.SetPointer(b, ptr), ref.SetPointer(b, ptr); o != r {
			t.Fatalf("SetPointer(%d,%d): %v vs reference %v", b, ptr, o, r)
		}
	case 6:
		optr, ook := opt.Pointer(b)
		rptr, rok := ref.Pointer(b)
		if optr != rptr || ook != rok {
			t.Fatalf("Pointer(%d): (%d,%v) vs reference (%d,%v)", b, optr, ook, rptr, rok)
		}
	case 7:
		if o, r := opt.Contains(b), ref.Contains(b); o != r {
			t.Fatalf("Contains(%d): %v vs reference %v", b, o, r)
		}
	}
}

// diffState compares the full observable state of both implementations.
func diffState(t *testing.T, cfg Config, opt *Cache, ref *Reference) {
	t.Helper()
	if os, rs := opt.Stats(), ref.Stats(); os != rs {
		t.Fatalf("stats diverged: %+v vs reference %+v", os, rs)
	}
	if ov, rv := opt.ValidCount(), ref.ValidCount(); ov != rv {
		t.Fatalf("ValidCount: %d vs reference %d", ov, rv)
	}
	if op, rp := opt.PinnedCount(), ref.PinnedCount(); op != rp {
		t.Fatalf("PinnedCount: %d vs reference %d", op, rp)
	}
	for si := 0; si < cfg.sets(); si++ {
		oorder, rorder := opt.SetLRUOrder(si), ref.SetLRUOrder(si)
		if len(oorder) == 0 && len(rorder) == 0 {
			continue
		}
		if !reflect.DeepEqual(oorder, rorder) {
			t.Fatalf("set %d LRU order: %v vs reference %v", si, oorder, rorder)
		}
	}
	if err := opt.CheckLRUInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestDifferentialAgainstReference(t *testing.T) {
	for _, cfg := range diffConfigs() {
		cfg := cfg
		t.Run("", func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				opt, ref := MustNew(cfg), MustNewReference(cfg)
				rng := trace.NewRNG(seed)
				// Half the seeds draw dense addresses, half wide ones; half
				// of each exercise the pin range.
				draw := denseSpace(cfg.sets() * cfg.Assoc * 3)
				if seed > 4 {
					draw = wideSpace(cfg, rng)
				}
				if seed%2 == 0 {
					pinSome(rng, opt, ref, draw)
				}
				for op := 0; op < 4000; op++ {
					diffOp(t, rng, opt, ref, draw)
					if op%256 == 0 {
						diffState(t, cfg, opt, ref)
					}
				}
				diffState(t, cfg, opt, ref)
			}
		})
	}
}

// TestDifferentialPointerLifetime checks the tag-extension pointers
// survive and die identically across eviction-heavy sequences.
func TestDifferentialPointerLifetime(t *testing.T) {
	cfg := Config{SizeBytes: 4 * 16 * 64, Assoc: 16, BlockBytes: 64, TagPointers: true}
	opt, ref := MustNew(cfg), MustNewReference(cfg)
	rng := trace.NewRNG(99)
	for op := 0; op < 20000; op++ {
		b := trace.BlockAddr(rng.Intn(512))
		switch rng.Intn(3) {
		case 0:
			if oe, ook := opt.Insert(b, false); true {
				re, rok := ref.Insert(b, false)
				if ook != rok || oe != re {
					t.Fatalf("Insert(%d): (%+v,%v) vs (%+v,%v)", b, oe, ook, re, rok)
				}
			}
		case 1:
			ptr := uint32(op)
			if o, r := opt.SetPointer(b, ptr), ref.SetPointer(b, ptr); o != r {
				t.Fatalf("SetPointer(%d): %v vs %v", b, o, r)
			}
		case 2:
			optr, ook := opt.Pointer(b)
			rptr, rok := ref.Pointer(b)
			if optr != rptr || ook != rok {
				t.Fatalf("Pointer(%d): (%d,%v) vs (%d,%v)", b, optr, ook, rptr, rok)
			}
		}
	}
	if opt.Stats() != ref.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", opt.Stats(), ref.Stats())
	}
}

// TestSetLRUOrderAgreesWithStamps cross-checks the two SetLRUOrder
// implementations' tie-free ordering on a listed cache by comparing
// against a stamp sort of the reference.
func TestSetLRUOrderAgreesWithStamps(t *testing.T) {
	cfg := Config{SizeBytes: 32 * 64, Assoc: 32, BlockBytes: 64}
	c := MustNew(cfg)
	rng := trace.NewRNG(7)
	type stamped struct {
		b     trace.BlockAddr
		order int
	}
	var inserted []stamped
	for i := 0; i < 24; i++ {
		b := trace.BlockAddr(rng.Intn(1000) + 1)
		c.Insert(b, false)
		inserted = append(inserted, stamped{b: b, order: i})
	}
	// Most recent insert of each block wins; order MRU-first.
	last := map[trace.BlockAddr]int{}
	for _, s := range inserted {
		last[s.b] = s.order
	}
	var want []stamped
	for b, o := range last {
		want = append(want, stamped{b, o})
	}
	sort.Slice(want, func(i, j int) bool { return want[i].order > want[j].order })
	got := c.SetLRUOrder(0)
	if len(got) != len(want) {
		t.Fatalf("order length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i].b {
			t.Fatalf("order[%d] = %d, want %d", i, got[i], want[i].b)
		}
	}
}

// recycleConfigs are the three Table I cache shapes as a Cache: the
// 2-way L1-I, a 16-way tag-pointer LLC bank, and the 128-way indexed
// prefetch buffer.
func recycleConfigs() map[string]Config {
	return map[string]Config{
		"l1i":     {SizeBytes: 32 << 10, Assoc: 2, BlockBytes: 64},
		"llcbank": {SizeBytes: 512 << 10, Assoc: 16, BlockBytes: 64, TagPointers: true, IndexShift: 4},
		"pbuf":    {SizeBytes: 128 * 64, Assoc: 128, BlockBytes: 64},
	}
}

// copyReference is CopyStateFrom for the naive implementation.
func copyReference(dst, src *Reference) {
	for si := range src.sets {
		copy(dst.sets[si], src.sets[si])
	}
	dst.lruClock, dst.stats = src.lruClock, src.stats
	dst.pinLo, dst.pinHi, dst.pinEnabled = src.pinLo, src.pinHi, src.pinEnabled
}

// TestDifferentialAcrossRecycling extends the differential test over
// the cache's whole life: random operations (pinning, pointers,
// invalidations, extractions, and bulk state copies into and out of the
// cache), hand back, New with the same Config. Whatever New returns —
// in all but the first round usually a recycled cache — must be
// indistinguishable from one built on fresh memory, and must then track
// the Reference through the next random sequence.
func TestDifferentialAcrossRecycling(t *testing.T) {
	for name, cfg := range recycleConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			pristine := alloc(cfg)
			pristine.reset()
			fresh := pristine.Fingerprint()

			rng := trace.NewRNG(2013)
			released := map[*Cache]bool{}
			recycled := 0
			lines := cfg.sets() * cfg.Assoc
			for round := 0; round < 12; round++ {
				opt, side := MustNew(cfg), MustNew(cfg)
				ref, sideRef := MustNewReference(cfg), MustNewReference(cfg)
				for _, c := range []*Cache{opt, side} {
					if released[c] {
						recycled++
					}
					if err := c.CheckLRUInvariant(); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					if c.Fingerprint() != fresh || c.ValidCount() != 0 || c.Stats() != (Stats{}) {
						t.Fatalf("round %d: New returned a cache that differs from a fresh one", round)
					}
				}
				// Rotate a footprint spread over the whole cache (most sets
				// touched once or never), one that overflows a few sets
				// (evictions, full index clusters), and one that does so with
				// full-width addresses.
				draw := denseSpace(lines * 3)
				switch round % 3 {
				case 1:
					draw = denseSpace(cfg.Assoc * 8)
				case 2:
					draw = wideSpace(cfg, rng)
				}
				if round%2 == 0 {
					pinSome(rng, opt, ref, draw)
				}
				for op := 0; op < 3000; op++ {
					switch r := rng.Intn(400); {
					case r == 0:
						opt.CopyStateFrom(side)
						copyReference(ref, sideRef)
					case r == 1:
						side.CopyStateFrom(opt)
						copyReference(sideRef, ref)
					case r < 100:
						diffOp(t, rng, side, sideRef, draw)
					default:
						diffOp(t, rng, opt, ref, draw)
					}
				}
				diffState(t, cfg, opt, ref)
				diffState(t, cfg, side, sideRef)
				opt.Release()
				side.Release()
				released[opt], released[side] = true, true
			}
			if recycled == 0 {
				t.Error("New never returned a released cache: recycling is not exercised")
			}
		})
	}
}
