package cache

import (
	"reflect"
	"testing"

	"shift/internal/trace"
)

// The PrefetchBuffer differential: a buffer and a fully-associative
// Reference of as many ways, driven the way System.step and
// issuePrefetch drive the buffer — a demand Extract, and a Contains that
// a prefetch's Insert follows when it missed — must make the same hits,
// drop the same blocks, and count every drop as an unused prefetch.

// pbufDiff drives a buffer and the Reference alike and compares them.
type pbufDiff struct {
	entries  int
	p        *PrefetchBuffer
	ref      *Reference
	discards int64
	ops      int
}

func newPbufDiff(t testing.TB, entries int) *pbufDiff {
	t.Helper()
	p, err := NewPrefetchBuffer(entries)
	if err != nil {
		t.Fatal(err)
	}
	ref := MustNewReference(Config{SizeBytes: entries * 64, Assoc: entries, BlockBytes: 64})
	return &pbufDiff{entries: entries, p: p, ref: ref}
}

// demand is step's side: a demand access that drains a buffered block.
func (d *pbufDiff) demand(t testing.TB, b trace.BlockAddr) {
	t.Helper()
	d.ops++
	want, _ := d.ref.Extract(b)
	if got := d.p.Extract(b); got != want {
		t.Fatalf("%d entries, op %d: Extract(%#x) %v, reference %v", d.entries, d.ops, b, got, want)
	}
}

// prefetch is issuePrefetch's side: buffer b unless it is buffered.
func (d *pbufDiff) prefetch(t testing.TB, b trace.BlockAddr) {
	t.Helper()
	d.ops++
	held := d.p.Contains(b)
	if want := d.ref.Contains(b); held != want {
		t.Fatalf("%d entries, op %d: Contains(%#x) %v, reference %v", d.entries, d.ops, b, held, want)
	}
	if held {
		return
	}
	ev, want := d.ref.Insert(b, true)
	if want && !ev.PrefetchUnused {
		t.Fatalf("%d entries, op %d: the reference dropped %#x, which was used", d.entries, d.ops, ev.Block)
	}
	got := d.p.Insert(b)
	if got != want {
		t.Fatalf("%d entries, op %d: Insert(%#x) evicted %v, reference %v", d.entries, d.ops, b, got, want)
	}
	if got {
		d.discards++
	}
}

// check compares the buffered blocks in order and the discard count.
func (d *pbufDiff) check(t testing.TB) {
	t.Helper()
	if got, want := d.p.Blocks(), d.ref.SetLRUOrder(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("%d entries after %d ops: buffer holds %v, reference %v", d.entries, d.ops, got, want)
	}
	if want := d.ref.Stats().PrefetchDiscards; d.discards != want {
		t.Fatalf("%d entries after %d ops: %d discards, reference %d", d.entries, d.ops, d.discards, want)
	}
}

// drive runs n steps over space: a demand access, then a few prefetches
// around it, as a stream prefetcher issues them.
func (d *pbufDiff) drive(t testing.TB, rng *trace.RNG, space addrSpace, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		b := space.draw(rng)
		d.demand(t, b)
		for k := rng.Intn(4); k > 0; k-- {
			d.prefetch(t, b+trace.BlockAddr(rng.Intn(8)))
		}
		if rng.Bool(0.3) {
			d.prefetch(t, space.draw(rng))
		}
		if i%512 == 0 {
			d.check(t)
		}
	}
	d.check(t)
}

func TestPrefetchBufferMatchesReference(t *testing.T) {
	rng := trace.NewRNG(26)
	sizes := []int{128, 1, 2, 3, 127, 129}
	for len(sizes) < 20 {
		sizes = append(sizes, 1+rng.Intn(300))
	}
	for _, entries := range sizes {
		full := Config{SizeBytes: entries * 64, Assoc: entries, BlockBytes: 64}
		for _, space := range []addrSpace{denseSpace(entries * 2), denseSpace(entries * 8), wideSpace(full, rng)} {
			d := newPbufDiff(t, entries)
			d.drive(t, rng, space, 4000)
			if entries < 200 && d.discards == 0 {
				t.Errorf("%d entries: nothing was discarded", entries)
			}
			d.p.Release()
		}
	}
}

// TestPrefetchBufferRecycled: what NewPrefetchBuffer returns after a
// Release of a used buffer is empty and tracks a fresh Reference.
func TestPrefetchBufferRecycled(t *testing.T) {
	const entries = 64
	rng := trace.NewRNG(9)
	seen := map[*PrefetchBuffer]bool{}
	recycled := 0
	for round := 0; round < 40; round++ {
		d := newPbufDiff(t, entries)
		if seen[d.p] {
			recycled++
		}
		seen[d.p] = true
		if len(d.p.Blocks()) != 0 {
			t.Fatalf("round %d: NewPrefetchBuffer returned a buffer holding %v", round, d.p.Blocks())
		}
		d.drive(t, rng, denseSpace([]int{entries, entries * 4, entries * 32}[round%3]), 1000+round*37)
		d.p.Release()
	}
	if recycled == 0 {
		t.Error("NewPrefetchBuffer never returned a released buffer: recycling is not exercised")
	}
}

func TestNewPrefetchBufferRejectsBadSize(t *testing.T) {
	for _, n := range []int{0, -1, maxPrefetchBufferEntries + 1} {
		if _, err := NewPrefetchBuffer(n); err == nil {
			t.Errorf("a buffer of %d entries was accepted", n)
		}
	}
}

// FuzzPrefetchBuffer is the differential over fuzzed sizes and operation
// sequences: three bytes of data are a demand access or a prefetch and a
// block of a 64 K-block space.
func FuzzPrefetchBuffer(f *testing.F) {
	f.Add(uint8(3), []byte{1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 4, 0, 0, 2, 0, 0, 1})
	f.Add(uint8(127), []byte{1, 9, 9, 0, 9, 9, 1, 9, 9})
	f.Fuzz(func(t *testing.T, entries uint8, data []byte) {
		d := newPbufDiff(t, int(entries)%200+1)
		for i := 0; i+2 < len(data); i += 3 {
			b := trace.BlockAddr(data[i+1])<<8 | trace.BlockAddr(data[i+2])
			if data[i]&1 == 0 {
				d.demand(t, b)
			} else {
				d.prefetch(t, b)
			}
		}
		d.check(t)
	})
}

// BenchmarkPrefetchBuffer is the cost of one record's traffic at the
// Table I prefetch buffer — a demand Extract and three prefetches, each a
// Contains and, when it missed, an Insert — on a real L1-I miss stream,
// beside the Cache it replaced. ns/op is per record.
func BenchmarkPrefetchBuffer(b *testing.B) {
	misses := llcStream(b)
	b.Run("PrefetchBuffer", func(b *testing.B) {
		p, _ := NewPrefetchBuffer(128)
		for i := 0; i < b.N; i++ {
			blk := misses[i%len(misses)]
			p.Extract(blk)
			for k := trace.BlockAddr(1); k <= 3; k++ {
				if !p.Contains(blk + k) {
					p.Insert(blk + k)
				}
			}
		}
	})
	b.Run("Cache", func(b *testing.B) {
		c := MustNew(Config{SizeBytes: 128 * 64, Assoc: 128, BlockBytes: 64})
		for i := 0; i < b.N; i++ {
			blk := misses[i%len(misses)]
			c.Extract(blk)
			for k := trace.BlockAddr(1); k <= 3; k++ {
				if !c.Contains(blk + k) {
					c.Insert(blk+k, true)
				}
			}
		}
	})
}

// Test-only operations: only this package's tests call these, so they
// live in a test file rather than in the product.

// Blocks returns the buffered blocks newest first — the MRU→LRU order of
// a Reference driven alike. It allocates and is meant for tests.
func (p *PrefetchBuffer) Blocks() []trace.BlockAddr {
	var out []trace.BlockAddr
	for li := p.tail; li >= 0; li = p.links[li].prev {
		out = append(out, trace.BlockAddr(p.keys[li]-1))
	}
	return out
}
