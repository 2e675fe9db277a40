package trace

import (
	"io"
	"testing"
	"testing/quick"
)

func TestAddrBlockRoundTrip(t *testing.T) {
	cases := []struct {
		addr Addr
		blk  BlockAddr
	}{
		{0, 0},
		{63, 0},
		{64, 1},
		{65, 1},
		{0x12345678, 0x48d159},
		{(1 << addrBits) - 1, MaxBlockAddr},
	}
	for _, c := range cases {
		// c.blk is the block holding c.addr: its first byte is at or
		// below c.addr, the next block's above it.
		if first, next := c.blk.Addr(), (c.blk + 1).Addr(); c.addr < first || c.addr >= next {
			t.Errorf("Addr(%#x) lies outside block %#x = [%#x, %#x)", uint64(c.addr), uint64(c.blk), uint64(first), uint64(next))
		}
	}
}

func TestBlockAddrAddr(t *testing.T) {
	if got := BlockAddr(3).Addr(); got != 192 {
		t.Errorf("BlockAddr(3).Addr() = %d, want 192", got)
	}
}

func TestBlockAddrString(t *testing.T) {
	if got := BlockAddr(1).String(); got != "0x40" {
		t.Errorf("String() = %q, want 0x40", got)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindSeq:    "seq",
		KindBranch: "branch",
		KindCall:   "call",
		KindReturn: "return",
		KindTrap:   "trap",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
		if !k.valid() {
			t.Errorf("Kind(%d) should be valid", k)
		}
	}
	if Kind(200).valid() {
		t.Error("Kind(200) should be invalid")
	}
	if Kind(200).String() == "" {
		t.Error("invalid kind should still format")
	}
}

func TestRecordValidate(t *testing.T) {
	ok := Record{Block: 10, Instrs: 4, Kind: KindSeq}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	bad := []Record{
		{Block: MaxBlockAddr + 1, Instrs: 1, Kind: KindSeq},
		{Block: 1, Instrs: 0, Kind: KindSeq},
		{Block: 1, Instrs: 1, Kind: Kind(99)},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad record %d accepted", i)
		}
	}
}

func TestSliceReader(t *testing.T) {
	recs := []Record{
		{Block: 1, Instrs: 4, Kind: KindSeq},
		{Block: 2, Instrs: 8, Kind: KindCall},
	}
	r := NewSliceReader(recs)
	if r.Supply() != 2 {
		t.Fatalf("Supply = %d, want 2", r.Supply())
	}
	for i := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if got != recs[i] {
			t.Errorf("Next %d = %+v, want %+v", i, got, recs[i])
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after end: err = %v, want io.EOF", err)
	}
	if r.Supply() != 0 {
		t.Errorf("Supply = %d after the end, want 0", r.Supply())
	}
}

func TestCollectAndLimit(t *testing.T) {
	recs := make([]Record, 10)
	for i := range recs {
		recs[i] = Record{Block: BlockAddr(i), Instrs: 1, Kind: KindSeq}
	}
	got, err := Collect(NewSliceReader(recs), 0)
	if err != nil || len(got) != 10 {
		t.Fatalf("Collect all: %d records, err=%v", len(got), err)
	}
	got, err = Collect(NewSliceReader(recs), 3)
	if err != nil || len(got) != 3 {
		t.Fatalf("Collect limited: %d records, err=%v", len(got), err)
	}
	got, err = Collect(Limit(NewSliceReader(recs), 4), 0)
	if err != nil || len(got) != 4 {
		t.Fatalf("Limit: %d records, err=%v", len(got), err)
	}
}

func TestMeasure(t *testing.T) {
	recs := []Record{
		{Block: 1, Instrs: 4, Kind: KindSeq},
		{Block: 2, Instrs: 8, Kind: KindCall},
		{Block: 1, Instrs: 4, Kind: KindSeq},
	}
	st, err := Measure(NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 3 || st.Instructions != 16 || st.UniqueBlocks != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.FootprintBytes() != 2*BlockBytes {
		t.Errorf("FootprintBytes = %d", st.FootprintBytes())
	}
	if got := st.SeqFraction(); got < 0.66 || got > 0.67 {
		t.Errorf("SeqFraction = %v, want ~2/3", got)
	}
	var empty Stats
	if empty.SeqFraction() != 0 {
		t.Error("empty SeqFraction should be 0")
	}
}

func TestZigzagProperty(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/1000 identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.uniform()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnUniformish(t *testing.T) {
	r := NewRNG(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		frac := float64(c) / draws
		if frac < 0.08 || frac > 0.12 {
			t.Errorf("bucket %d frequency %v outside [0.08,0.12]", i, frac)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(5)
	z := NewZipf(r, 100, 1.0)
	const draws = 50000
	counts := make([]int, 100)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Rank 0 should dominate rank 50 heavily under s=1.
	if counts[0] < counts[50]*5 {
		t.Errorf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != draws {
		t.Errorf("draws out of range: %d != %d", total, draws)
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(0) should panic")
		}
	}()
	NewZipf(NewRNG(1), 0, 1.0)
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(3)
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / draws
	if frac < 0.23 || frac > 0.27 {
		t.Errorf("Bool(0.25) frequency %v", frac)
	}
}
