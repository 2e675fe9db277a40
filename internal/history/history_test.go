package history

import (
	"math/bits"
	"testing"
	"testing/quick"

	"shift/internal/trace"
)

func TestRegionContains(t *testing.T) {
	r := Region{Trigger: 100, Vec: 0b0000101} // +1 and +3
	span := 8
	if !r.Contains(100, span) {
		t.Error("trigger not contained")
	}
	if !r.Contains(101, span) || !r.Contains(103, span) {
		t.Error("vector blocks not contained")
	}
	if r.Contains(102, span) || r.Contains(104, span) || r.Contains(99, span) || r.Contains(108, span) {
		t.Error("uncovered blocks reported contained")
	}
}

func TestRegionBlocksAndCount(t *testing.T) {
	r := Region{Trigger: 10, Vec: 0b1000001}
	got := r.Blocks(nil, 8)
	want := []trace.BlockAddr{10, 11, 17}
	if len(got) != len(want) {
		t.Fatalf("Blocks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Blocks = %v, want %v", got, want)
		}
	}
	if r.Count(8) != 3 {
		t.Errorf("Count = %d, want 3", r.Count(8))
	}
	if r.String() == "" {
		t.Error("String empty")
	}
}

func TestRegionBlocksContainsAgreeProperty(t *testing.T) {
	f := func(trigger uint32, vec uint16, probe uint8) bool {
		r := Region{Trigger: trace.BlockAddr(trigger), Vec: vec & 0x7F}
		span := 8
		blocks := r.Blocks(nil, span)
		inList := false
		b := trace.BlockAddr(trigger) + trace.BlockAddr(probe%10)
		for _, x := range blocks {
			if x == b {
				inList = true
			}
		}
		return inList == r.Contains(b, span)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStorageMathMatchesPaper(t *testing.T) {
	// Section 4.2: 34-bit trigger + 7-bit vector = 41 bits; 12 records per
	// 64-byte block.
	if got := BitsPerRecord(8); got != 41 {
		t.Errorf("BitsPerRecord(8) = %d, want 41", got)
	}
	if got := RecordsPerCacheBlock(8); got != 12 {
		t.Errorf("RecordsPerCacheBlock(8) = %d, want 12", got)
	}
}

func TestBuilderSequence(t *testing.T) {
	b := MustNewBuilder(8)
	// Paper Figure 4(a): access stream A, A+2, A+3, B  => record (A, 0110).
	// With bit i meaning trigger+i+1: +2 sets bit 1, +3 sets bit 2.
	A := trace.BlockAddr(1000)
	B := trace.BlockAddr(5000)
	for _, blk := range []trace.BlockAddr{A, A + 2, A + 3} {
		if _, done := b.Add(blk); done {
			t.Fatal("region closed early")
		}
	}
	rec, done := b.Add(B)
	if !done {
		t.Fatal("region not closed by out-of-region access")
	}
	if rec.Trigger != A || rec.Vec != 0b0000110 {
		t.Errorf("record = %+v, want trigger A vec 0110", rec)
	}
	// Flush yields the open region for B.
	rec, ok := b.Flush()
	if !ok || rec.Trigger != B {
		t.Errorf("Flush = %+v, %v", rec, ok)
	}
	if _, ok := b.Flush(); ok {
		t.Error("second Flush should be empty")
	}
}

func TestBuilderRepeatedTrigger(t *testing.T) {
	b := MustNewBuilder(8)
	b.Add(50)
	if _, done := b.Add(50); done {
		t.Error("re-access of trigger closed region")
	}
	rec, _ := b.Flush()
	if rec.Vec != 0 {
		t.Errorf("vec = %#x, want 0", rec.Vec)
	}
}

func TestBuilderBackwardAccessCloses(t *testing.T) {
	b := MustNewBuilder(8)
	b.Add(100)
	rec, done := b.Add(99) // backward: outside region
	if !done || rec.Trigger != 100 {
		t.Errorf("backward access: rec=%+v done=%v", rec, done)
	}
}

// TestBuilderReset: a reset builder is a fresh one — equal by value, so
// it completes the same records from the same accesses — whatever region
// it had open.
func TestBuilderReset(t *testing.T) {
	for span := 2; span <= MaxRegionSpan; span++ {
		b := MustNewBuilder(span)
		for off := 0; off < span; off++ {
			b.Add(trace.MaxBlockAddr - trace.BlockAddr(off))
		}
		b.Reset()
		if *b != *MustNewBuilder(span) {
			t.Fatalf("span %d: Reset left %+v", span, *b)
		}
		if _, done := b.Add(7); done {
			t.Fatalf("span %d: the first access after Reset completed a record", span)
		}
	}
}

func TestBuilderSpanValidation(t *testing.T) {
	if _, err := newBuilder(1); err == nil {
		t.Error("span 1 accepted")
	}
	if _, err := newBuilder(17); err == nil {
		t.Error("span 17 accepted")
	}
	if b, err := newBuilder(0); err != nil || b.span != DefaultRegionSpan {
		t.Errorf("span 0 should default to %d", DefaultRegionSpan)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewBuilder should panic")
		}
	}()
	MustNewBuilder(99)
}

func TestBufferAppendRead(t *testing.T) {
	b := MustNewBuffer(4, 0)
	if b.Len() != 0 || b.WritePos() != 0 {
		t.Fatal("new buffer not empty")
	}
	p0 := b.Append(Region{Trigger: 1})
	p1 := b.Append(Region{Trigger: 2})
	if p0 != 0 || p1 != 1 {
		t.Fatalf("positions %d, %d", p0, p1)
	}
	if r, ok := b.Read(p0); !ok || r.Trigger != 1 {
		t.Errorf("Read(p0) = %+v, %v", r, ok)
	}
	if _, ok := b.Read(99); ok {
		t.Error("read past write pointer succeeded")
	}
}

func TestBufferWrapInvalidation(t *testing.T) {
	b := MustNewBuffer(4, 0)
	positions := make([]uint64, 6)
	for i := 0; i < 6; i++ {
		positions[i] = b.Append(Region{Trigger: trace.BlockAddr(i)})
	}
	// Capacity 4: positions 0 and 1 are overwritten.
	for i := 0; i < 2; i++ {
		if b.Valid(positions[i]) {
			t.Errorf("position %d still valid after wrap", i)
		}
	}
	for i := 2; i < 6; i++ {
		r, ok := b.Read(positions[i])
		if !ok || r.Trigger != trace.BlockAddr(i) {
			t.Errorf("position %d: %+v, %v", i, r, ok)
		}
	}
	if b.Len() != 4 {
		t.Errorf("Len = %d, want 4", b.Len())
	}
}

func TestBufferReadSeq(t *testing.T) {
	b := MustNewBuffer(8, 0)
	for i := 0; i < 5; i++ {
		b.Append(Region{Trigger: trace.BlockAddr(i)})
	}
	recs, next := b.ReadSeq(nil, 2, 10)
	if len(recs) != 3 || next != 5 {
		t.Fatalf("ReadSeq = %d recs, next %d; want 3, 5", len(recs), next)
	}
	for i, r := range recs {
		if r.Trigger != trace.BlockAddr(2+i) {
			t.Errorf("rec %d = %+v", i, r)
		}
	}
}

// TestBufferRoundTrip: a record is stored as one packed word, and every
// record a Builder can complete — any vector of any span from 2 to
// MaxRegionSpan (all of them are 15-bit values; the 16th bit is carried
// too), behind any 34-bit trigger — must come back from Read and ReadSeq
// exactly as it was appended.
func TestBufferRoundTrip(t *testing.T) {
	triggers := []trace.BlockAddr{0, 1, 0x2AAAAAAAA, 0x155555555, trace.MaxBlockAddr - MaxRegionSpan, trace.MaxBlockAddr}
	b := MustNewBuffer(1<<16, 0)
	want := make([]Region, 0, int(b.capacity))
	for vec := 0; vec < int(b.capacity); vec++ {
		r := Region{Trigger: triggers[vec%len(triggers)], Vec: uint16(vec)}
		want = append(want, r)
		if got, ok := b.Read(b.Append(r)); !ok || got != r {
			t.Fatalf("Read after Append(%v) = %v, %v", r, got, ok)
		}
	}
	got, next := b.ReadSeq(nil, 0, int(b.capacity)+1)
	if next != b.capacity || len(got) != len(want) {
		t.Fatalf("ReadSeq returned %d records up to %d, want %d", len(got), next, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: ReadSeq gave %v, appended %v", i, got[i], want[i])
		}
	}
}

func TestBufferValidityProperty(t *testing.T) {
	f := func(appends uint16, probe uint16) bool {
		b := MustNewBuffer(16, 0)
		n := uint64(appends % 200)
		for i := uint64(0); i < n; i++ {
			b.Append(Region{})
		}
		p := uint64(probe)
		want := p < n && n-p <= 16
		return b.Valid(p) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBufferRunSizedMatchesFull: a buffer built for a window of W records
// answers Valid, Read, Len and capacity like one of its whole capacity over
// its window, for windows below, at and above the capacity, and refuses
// a record past a window below the capacity.
func TestBufferRunSizedMatchesFull(t *testing.T) {
	const capacity = 16
	for _, writes := range []int{1, 5, 16, 40} {
		run, full := MustNewBuffer(capacity, writes), MustNewBuffer(capacity, 0)
		for i := range writes {
			r := Region{Trigger: trace.BlockAddr(i + 1), Vec: uint16(i)}
			if p, q := run.Append(r), full.Append(r); p != q {
				t.Fatalf("window %d: Append %d at %d, full buffer at %d", writes, i, p, q)
			}
			if run.Len() != full.Len() || run.capacity != full.capacity {
				t.Fatalf("window %d, %d appended: Len/Cap %d/%d, full buffer %d/%d", writes, i+1, run.Len(), run.capacity, full.Len(), full.capacity)
			}
			for pos := uint64(0); pos <= uint64(i)+1; pos++ {
				g, gok := run.Read(pos)
				w, wok := full.Read(pos)
				if g != w || gok != wok {
					t.Fatalf("window %d, %d appended: Read(%d) = %v, %v; full buffer %v, %v", writes, i+1, pos, g, gok, w, wok)
				}
			}
		}
		if writes < capacity {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("window %d: a record past the window was taken", writes)
					}
				}()
				run.Append(Region{})
			}()
		}
	}
}

func TestBufferRejectsBadCap(t *testing.T) {
	if _, err := NewBuffer(0, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewBuffer(4, -1); err == nil {
		t.Error("negative window accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewBuffer should panic")
		}
	}()
	MustNewBuffer(-1, 0)
}

func TestIndexTableBasic(t *testing.T) {
	it := MustNewIndexTable(8, 4)
	if len(it.tab) != 8 {
		t.Fatalf("Cap = %d", len(it.tab))
	}
	if _, ok := it.Lookup(5); ok {
		t.Fatal("hit in empty table")
	}
	it.Update(5, 123)
	if pos, ok := it.Lookup(5); !ok || pos != 123 {
		t.Fatalf("Lookup = %d, %v", pos, ok)
	}
	it.Update(5, 456) // update in place
	if pos, _ := it.Lookup(5); pos != 456 {
		t.Errorf("updated pos = %d, want 456", pos)
	}
	if it.Len() != 1 {
		t.Errorf("Len = %d, want 1", it.Len())
	}
}

func TestIndexTableCapacityEviction(t *testing.T) {
	it := MustNewIndexTable(8, 4) // 2 sets of 4
	// Fill one set (triggers = even numbers map to set 0 with 2 sets).
	for i := 0; i < 8; i++ {
		it.Update(trace.BlockAddr(i*2), uint64(i))
	}
	if it.Len() > 8 {
		t.Errorf("Len = %d exceeds capacity", it.Len())
	}
	// The oldest entries in the overfilled set must be gone.
	if _, ok := it.Lookup(0); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := it.Lookup(14); !ok {
		t.Error("MRU entry evicted")
	}
}

func TestIndexTableLRUTouchOnLookup(t *testing.T) {
	it := MustNewIndexTable(4, 4)
	for i := 0; i < 4; i++ {
		it.Update(trace.BlockAddr(i), uint64(i))
	}
	it.Lookup(0) // make 0 MRU
	it.Update(100, 99)
	if _, ok := it.Lookup(0); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := it.Lookup(1); ok {
		t.Error("LRU entry survived")
	}
}

func TestIndexTableValidation(t *testing.T) {
	if _, err := newIndexTable(0, 1); err == nil {
		t.Error("zero entries accepted")
	}
	if _, err := newIndexTable(8, 3); err == nil {
		t.Error("non-dividing assoc accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewIndexTable should panic")
		}
	}()
	MustNewIndexTable(8, 0)
}

func TestIndexTableCapProperty(t *testing.T) {
	f := func(updates []uint16) bool {
		it := MustNewIndexTable(16, 4)
		for i, u := range updates {
			it.Update(trace.BlockAddr(u), uint64(i))
			if it.Len() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Test-only operations: only this package's tests call these, so they
// live in a test file rather than in the product.

// MustNewBuffer panics on config errors.
func MustNewBuffer(capacity, writes int) *Buffer {
	b, err := NewBuffer(capacity, writes)
	if err != nil {
		panic(err)
	}
	return b
}

// Len returns the number of live records (saturates at capacity).
func (b *Buffer) Len() int { return int(min(b.next, b.capacity)) }

// Flush completes and returns the in-progress region, if any.
func (b *Builder) Flush() (Region, bool) {
	if !b.open {
		return Region{}, false
	}
	b.open = false
	return b.cur, true
}

// Contains reports whether the record covers block b under the given span.
func (r Region) Contains(b trace.BlockAddr, span int) bool {
	if b == r.Trigger {
		return true
	}
	if b < r.Trigger {
		return false
	}
	off := uint64(b - r.Trigger)
	if off >= uint64(span) {
		return false
	}
	return r.Vec&(1<<(off-1)) != 0
}

// Blocks appends the covered block addresses (trigger first, then the set
// vector offsets in ascending order) to dst and returns it. The vector is
// walked set-bit by set-bit, so the cost scales with the blocks actually
// covered rather than the span.
func (r Region) Blocks(dst []trace.BlockAddr, span int) []trace.BlockAddr {
	dst = append(dst, r.Trigger)
	vec := uint32(r.Vec) & (1<<(span-1) - 1)
	for vec != 0 {
		off := bits.TrailingZeros32(vec)
		dst = append(dst, r.Trigger+trace.BlockAddr(off+1))
		vec &= vec - 1
	}
	return dst
}

// Count returns the number of blocks the record covers (trigger included).
func (r Region) Count(span int) int {
	n := 1
	for off := 1; off < span; off++ {
		if r.Vec&(1<<(off-1)) != 0 {
			n++
		}
	}
	return n
}
