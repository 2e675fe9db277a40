package cache

import (
	"reflect"
	"testing"

	"shift/internal/trace"
	"shift/internal/workload"
)

// The LLCBank differential: a bank and the Reference, driven with the
// operations the simulator performs on an LLC bank — LookupInsert and
// Insert of demand fills, Contains, Pointer and SetPointer — must agree
// on every answer, on every set's MRU→LRU order, on the pointers of the
// resident blocks and on the pinned count, for any valid geometry.

// llcDiff drives a bank and the Reference alike and compares them.
type llcDiff struct {
	cfg Config
	c   *LLCBank
	ref *Reference
	ops int
}

func newLLCDiff(t testing.TB, cfg Config) *llcDiff {
	t.Helper()
	c, err := NewLLCBank(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &llcDiff{cfg: cfg, c: c, ref: MustNewReference(cfg)}
}

// pin sets the pinned range of both.
func (d *llcDiff) pin(lo, hi trace.BlockAddr) {
	d.c.PinRange(lo, hi)
	d.ref.PinRange(lo, hi)
}

// op applies operation kind (mod 5) to b, with ptr for SetPointer, and
// checks the answer and b's set.
func (d *llcDiff) op(t testing.TB, kind int, b trace.BlockAddr, ptr uint32) {
	t.Helper()
	d.ops++
	switch kind % 5 {
	case 0:
		want, _, _, _ := d.ref.LookupInsert(b, false)
		if got := d.c.LookupInsert(b); got != want {
			t.Fatalf("%+v op %d: LookupInsert(%#x) hit %v, reference %v", d.cfg, d.ops, b, got, want)
		}
	case 1:
		d.ref.Insert(b, false)
		d.c.Insert(b)
	case 2:
		if got, want := d.c.Contains(b), d.ref.Contains(b); got != want {
			t.Fatalf("%+v op %d: Contains(%#x) %v, reference %v", d.cfg, d.ops, b, got, want)
		}
	case 3:
		if got, want := d.c.SetPointer(b, ptr), d.ref.SetPointer(b, ptr); got != want {
			t.Fatalf("%+v op %d: SetPointer(%#x) %v, reference %v", d.cfg, d.ops, b, got, want)
		}
	case 4:
		gp, gok := d.c.Pointer(b)
		wp, wok := d.ref.Pointer(b)
		if gp != wp || gok != wok {
			t.Fatalf("%+v op %d: Pointer(%#x) (%d,%v), reference (%d,%v)", d.cfg, d.ops, b, gp, gok, wp, wok)
		}
	}
	d.checkSet(t, int(uint64(b)>>d.cfg.IndexShift)&(d.cfg.sets()-1))
}

// checkSet compares set si's order and its blocks' pointers.
func (d *llcDiff) checkSet(t testing.TB, si int) {
	t.Helper()
	got, want := d.c.SetLRUOrder(si), d.ref.SetLRUOrder(si)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v after %d ops: set %d holds %v, reference %v", d.cfg, d.ops, si, got, want)
	}
	for _, b := range want {
		gp, gok := d.c.Pointer(b)
		wp, wok := d.ref.Pointer(b)
		if gp != wp || gok != wok {
			t.Fatalf("%+v after %d ops: block %#x has pointer (%d,%v), reference (%d,%v)", d.cfg, d.ops, b, gp, gok, wp, wok)
		}
	}
}

// check compares every set and the pinned count.
func (d *llcDiff) check(t testing.TB) {
	t.Helper()
	for si := 0; si < d.cfg.sets(); si++ {
		d.checkSet(t, si)
	}
	if got, want := d.c.PinnedCount(), d.ref.PinnedCount(); got != want {
		t.Fatalf("%+v after %d ops: %d lines pinned, reference %d", d.cfg, d.ops, got, want)
	}
}

// randomLLCGeometry draws a valid geometry of 16 (llcMinSets) to 1024
// sets and 1 to 32 ways, with or without pointers.
func randomLLCGeometry(rng *trace.RNG) Config {
	assoc, sets := 1+rng.Intn(32), llcMinSets<<rng.Intn(7)
	return Config{SizeBytes: sets * assoc * 64, Assoc: assoc, BlockBytes: 64,
		IndexShift: uint(rng.Intn(5)), TagPointers: rng.Bool(0.5)}
}

func TestLLCBankMatchesReference(t *testing.T) {
	rng := trace.NewRNG(25)
	geometries := []Config{
		{SizeBytes: 512 << 10, Assoc: 16, BlockBytes: 64, IndexShift: 4, TagPointers: true},
		{SizeBytes: 512 << 10, Assoc: 16, BlockBytes: 64, IndexShift: 4},
	}
	for len(geometries) < 40 {
		geometries = append(geometries, randomLLCGeometry(rng))
	}
	for gi, cfg := range geometries {
		lines := cfg.sets() * cfg.Assoc
		for si, space := range []addrSpace{denseSpace(lines * 3), denseSpace(cfg.Assoc * 8), wideSpace(cfg, rng)} {
			d := newLLCDiff(t, cfg)
			// Half the runs pin a range from the start, as virtualized SHIFT
			// does; a quarter move it halfway, which an Insert of a resident
			// block must notice and a hit must not.
			pinned := (gi+si)%2 == 0
			if pinned {
				pinSomeLLC(rng, d, space)
			}
			for i := 0; i < 3000; i++ {
				if i == 1500 && pinned && rng.Bool(0.5) {
					pinSomeLLC(rng, d, space)
				}
				d.op(t, rng.Intn(5), space.draw(rng), uint32(rng.Intn(1<<15)))
				if i%1000 == 0 {
					d.check(t)
				}
			}
			d.check(t)
			d.c.Release()
		}
	}
}

// pinSomeLLC pins a short range from a drawn address on in both.
func pinSomeLLC(rng *trace.RNG, d *llcDiff, space addrSpace) {
	lo := space.draw(rng)
	d.pin(lo, lo+trace.BlockAddr(rng.Intn(space.pinSpan)+1))
}

// TestLLCBankFullyPinnedSetBypasses: a set whose every line is pinned
// takes no fill, and a hit in it keeps every pin.
func TestLLCBankFullyPinnedSetBypasses(t *testing.T) {
	cfg := Config{SizeBytes: llcMinSets * 4 * 64, Assoc: 4, BlockBytes: 64, TagPointers: true}
	d := newLLCDiff(t, cfg)
	// The blocks stride by the set count, so all of them land in set 0.
	const stride = llcMinSets
	d.pin(0, 4*stride)
	for i := 0; i < 4; i++ {
		d.op(t, 0, trace.BlockAddr(i*stride), 0)
	}
	for i := 0; i < 12; i++ {
		d.op(t, i, trace.BlockAddr(i*stride), uint32(i))
	}
	d.check(t)
	if got := d.c.SetLRUOrder(0); len(got) != 4 || d.c.PinnedCount() != 4 {
		t.Fatalf("a fully pinned set holds %v, %d pinned", got, d.c.PinnedCount())
	}
}

// TestLLCBankRejectsTinyGeometry: a bank of fewer than llcMinSets sets
// could not hold a 34-bit block's tag in its 31-bit word, so NewLLCBank
// refuses it; llcMinSets sets it takes.
func TestLLCBankRejectsTinyGeometry(t *testing.T) {
	for sets := 1; sets <= llcMinSets; sets *= 2 {
		for _, pointers := range []bool{false, true} {
			cfg := Config{SizeBytes: sets * 16 * 64, Assoc: 16, BlockBytes: 64, IndexShift: 4, TagPointers: pointers}
			c, err := NewLLCBank(cfg)
			if sets < llcMinSets && err == nil {
				t.Errorf("NewLLCBank took a bank of %d sets", sets)
			}
			if sets == llcMinSets {
				if err != nil {
					t.Fatalf("NewLLCBank refused a bank of %d sets: %v", sets, err)
				}
				c.Release()
			}
		}
	}
}

// TestLLCBankTopBlocks: at the smallest geometry the tags are widest, and
// the blocks just under trace.MaxBlockAddr give the largest of them, the
// one that sits right under the pin bit. SetLRUOrder must give each block
// back exactly from its tag and set, pinned or not.
func TestLLCBankTopBlocks(t *testing.T) {
	for _, pointers := range []bool{false, true} {
		cfg := Config{SizeBytes: llcMinSets * 16 * 64, Assoc: 16, BlockBytes: 64, IndexShift: 4, TagPointers: pointers}
		d := newLLCDiff(t, cfg)
		d.pin(trace.MaxBlockAddr-7, trace.MaxBlockAddr+1)
		for k := 0; k < 3*cfg.sets()*cfg.Assoc; k++ {
			b := trace.MaxBlockAddr - trace.BlockAddr(k)
			d.op(t, 0, b, 0)
			if got := d.c.SetLRUOrder(int(uint64(b)>>cfg.IndexShift) & (cfg.sets() - 1)); got[0] != b {
				t.Fatalf("block %#x filled, its set's MRU line reads %#x", b, got[0])
			}
		}
		d.check(t)
		if got := d.c.PinnedCount(); got != 8 {
			t.Errorf("%d lines pinned, want the 8 of the top range", got)
		}
		d.c.Release()
	}
}

// TestLLCBankRecycled: what NewLLCBank returns after a Release — of a
// bank with or without pointers, filled and pinned — is indistinguishable
// from a bank on fresh memory, and tracks the Reference from there.
func TestLLCBankRecycled(t *testing.T) {
	cfg := Config{SizeBytes: 64 << 10, Assoc: 16, BlockBytes: 64, IndexShift: 4}
	fresh := newLLCDiff(t, cfg)
	empty := fresh.c.Fingerprint()
	rng := trace.NewRNG(8)
	recycled := 0
	seen := map[*LLCBank]bool{fresh.c: true}
	for round := 0; round < 40; round++ {
		cfg.TagPointers = round%3 == 1
		d := newLLCDiff(t, cfg)
		if seen[d.c] {
			recycled++
		}
		seen[d.c] = true
		if d.c.Fingerprint() != empty || d.c.PinnedCount() != 0 || (d.c.ptrs != nil) != cfg.TagPointers {
			t.Fatalf("round %d: NewLLCBank returned a bank that differs from a fresh one", round)
		}
		space := denseSpace([]int{cfg.sets() * cfg.Assoc * 3, cfg.Assoc * 8, 200}[round%3])
		if round%2 == 0 {
			pinSomeLLC(rng, d, space)
		}
		for i := 0; i < 2000; i++ {
			d.op(t, rng.Intn(5), space.draw(rng), uint32(i))
		}
		d.check(t)
		d.c.Release()
	}
	if recycled == 0 {
		t.Error("NewLLCBank never returned a released bank: recycling is not exercised")
	}
}

// FuzzLLCBank is the differential over fuzzed geometries (16 to 1024
// sets), pin ranges and operation sequences: three bytes of data are an
// operation and the low 16 bits of a block, and the operation's top bit
// puts the fuzzed high part above them, so blocks use all 34 bits.
func FuzzLLCBank(f *testing.F) {
	f.Add(uint8(16), uint8(3), uint8(4), true, uint32(0), uint16(3), uint8(9), []byte{0, 0, 3, 1, 0, 3, 3, 0, 3, 4, 0, 3, 0, 1, 3})
	f.Add(uint8(1), uint8(0), uint8(0), false, uint32(0), uint16(0), uint8(0), []byte{0, 0, 1, 0, 0, 2, 2, 0, 1})
	f.Add(uint8(16), uint8(0), uint8(4), true, ^uint32(0), uint16(0xfff0), uint8(16), []byte{128, 255, 255, 0, 255, 255, 129, 255, 240, 131, 255, 255, 132, 255, 255})
	f.Fuzz(func(t *testing.T, assoc, setBits, shift uint8, pointers bool, high uint32, pinLo uint16, pinLen uint8, data []byte) {
		cfg := Config{Assoc: int(assoc%32) + 1, BlockBytes: 64, IndexShift: uint(shift % 5), TagPointers: pointers}
		cfg.SizeBytes = cfg.Assoc * 64 * llcMinSets << (setBits % 7)
		d := newLLCDiff(t, cfg)
		hi := trace.BlockAddr(high) << 16 & trace.MaxBlockAddr
		if pinLen != 0 {
			lo := hi | trace.BlockAddr(pinLo)
			d.pin(lo, lo+trace.BlockAddr(pinLen))
		}
		for i := 0; i+2 < len(data); i += 3 {
			b := trace.BlockAddr(data[i+1])<<8 | trace.BlockAddr(data[i+2])
			if data[i]&0x80 != 0 {
				b |= hi
			}
			d.op(t, int(data[i]), b, uint32(i))
		}
		d.check(t)
	})
}

// llcStream is the LLC's side of a real stream: the blocks core 3 of
// "OLTP Oracle" misses in a Table I L1-I, about 160 K of them.
func llcStream(b *testing.B) []trace.BlockAddr {
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
	l1, _ := NewICache(Config{SizeBytes: 32 << 10, Assoc: 2, BlockBytes: 64})
	var misses []trace.BlockAddr
	for _, r := range recs {
		if hit, _ := l1.LookupInsert(r.Block); !hit {
			misses = append(misses, r.Block)
		}
	}
	return misses
}

// BenchmarkLLCBank is the per-access cost of the sixteen Table I LLC
// banks on a real L1-I miss stream, beside the Cache they replaced.
// LLCBank drives one System's banks, whose tags fit a 2 MB host L2;
// LLCBank6 drives six, one per member of a G12 batch, taking turns on
// the same stream, which do not.
func BenchmarkLLCBank(b *testing.B) {
	misses := llcStream(b)
	cfg := Config{SizeBytes: 512 << 10, Assoc: 16, BlockBytes: 64, IndexShift: 4}
	b.Run("LLCBank", func(b *testing.B) {
		var banks [16]*LLCBank
		for i := range banks {
			banks[i], _ = NewLLCBank(cfg)
		}
		for i := 0; i < b.N; i++ {
			blk := misses[i%len(misses)]
			banks[blk&15].LookupInsert(blk)
		}
	})
	b.Run("LLCBank6", func(b *testing.B) {
		var banks [6][16]*LLCBank
		for m := range banks {
			for i := range banks[m] {
				banks[m][i], _ = NewLLCBank(cfg)
			}
		}
		for i := 0; i < b.N; i++ {
			blk := misses[i/len(banks)%len(misses)]
			banks[i%len(banks)][blk&15].LookupInsert(blk)
		}
	})
	b.Run("Cache", func(b *testing.B) {
		cfg := cfg
		cfg.TagPointers = true
		var banks [16]*Cache
		for i := range banks {
			banks[i] = MustNew(cfg)
		}
		for i := 0; i < b.N; i++ {
			blk := misses[i%len(misses)]
			banks[blk&15].LookupInsert(blk, false)
		}
	})
}

// Test-only operations: only this package's tests call these, so they
// live in a test file rather than in the product.

// SetLRUOrder returns the blocks of set si ordered MRU→LRU, each put
// back together from its tag and si. It allocates and is meant for tests
// and debugging.
func (c *LLCBank) SetLRUOrder(si int) []trace.BlockAddr {
	var out []trace.BlockAddr
	for _, v := range c.lines[si*c.ways : (si+1)*c.ways] {
		if v == 0 {
			break
		}
		t := uint64(v&^llcPinned - 1)
		out = append(out, trace.BlockAddr(t>>c.shift<<c.tagShift|uint64(si)<<c.shift|t&c.lo))
	}
	return out
}
