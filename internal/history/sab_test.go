package history

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"shift/internal/trace"
)

func sabCfg() SABConfig { return DefaultSABConfig() }

func TestSABConfigValidate(t *testing.T) {
	if err := DefaultSABConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	if DefaultSABConfig().Streams != 4 || DefaultSABConfig().Capacity != 12 || DefaultSABConfig().Lookahead != 5 {
		t.Error("defaults do not match the paper's tuned values (4 streams, 12 records, lookahead 5)")
	}
	bad := []SABConfig{
		{Streams: 0, Capacity: 12, Lookahead: 5, Span: 8},
		{Streams: 4, Capacity: 0, Lookahead: 5, Span: 8},
		{Streams: 4, Capacity: 12, Lookahead: 0, Span: 8},
		{Streams: 4, Capacity: 12, Lookahead: 5, Span: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSABAllocAndFill(t *testing.T) {
	s := MustNewSAB(sabCfg())
	si := s.Alloc()
	s.FillRegions(si, []Region{{Trigger: 100, Vec: 0b11}}, 1)
	if !s.Covers(100) || !s.Covers(101) || !s.Covers(102) {
		t.Error("filled region not covered")
	}
	if s.Covers(104) {
		t.Error("uncovered block reported covered")
	}
	if s.NextPos(si) != 1 {
		t.Errorf("NextPos = %d", s.NextPos(si))
	}
	if s.LiveStreams() != 1 {
		t.Errorf("LiveStreams = %d", s.LiveStreams())
	}
}

func TestSABAdvanceDropsPassedRegions(t *testing.T) {
	s := MustNewSAB(sabCfg())
	si := s.Alloc()
	recs := []Region{{Trigger: 10}, {Trigger: 20}, {Trigger: 30}}
	s.FillRegions(si, recs, 3)
	// Advance to the block in region 2 (trigger 30): regions 10 and 20
	// are passed and must be dropped.
	gotSi, needed, ok := s.Advance(30)
	if !ok || gotSi != si {
		t.Fatalf("Advance = %d, %v", gotSi, ok)
	}
	if s.StreamLen(si) != 1 {
		t.Errorf("StreamLen = %d, want 1", s.StreamLen(si))
	}
	// The issue window tops up to Lookahead records: 1 remains queued,
	// so 4 replacements are requested.
	if needed != sabCfg().Lookahead-1 {
		t.Errorf("needed = %d, want %d", needed, sabCfg().Lookahead-1)
	}
	if s.Covers(10) || s.Covers(20) {
		t.Error("passed regions still covered")
	}
}

func TestSABAdvanceMissReturnsFalse(t *testing.T) {
	s := MustNewSAB(sabCfg())
	if _, _, ok := s.Advance(42); ok {
		t.Error("Advance hit in empty SAB")
	}
}

func TestSABCapacityEviction(t *testing.T) {
	cfg := sabCfg()
	s := MustNewSAB(cfg)
	si := s.Alloc()
	recs := make([]Region, cfg.Capacity+5)
	for i := range recs {
		recs[i] = Region{Trigger: trace.BlockAddr(1000 + 100*i)}
	}
	s.FillRegions(si, recs, uint64(len(recs)))
	if s.StreamLen(si) != cfg.Capacity {
		t.Errorf("StreamLen = %d, want %d", s.StreamLen(si), cfg.Capacity)
	}
	// Oldest records must have been evicted.
	if s.Covers(1000) {
		t.Error("oldest record survived over-capacity fill")
	}
	if !s.Covers(trace.BlockAddr(1000 + 100*(len(recs)-1))) {
		t.Error("newest record missing")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSABLRUStreamReplacement(t *testing.T) {
	cfg := sabCfg()
	s := MustNewSAB(cfg)
	sis := make([]int, cfg.Streams)
	for i := range sis {
		sis[i] = s.Alloc()
		s.FillRegions(sis[i], []Region{{Trigger: trace.BlockAddr(100 * (i + 1))}}, 0)
	}
	// Touch stream 0 so stream 1 is LRU.
	if _, _, ok := s.Advance(100); !ok {
		t.Fatal("stream 0 does not cover its own trigger")
	}
	victim := s.Alloc()
	if victim != sis[1] {
		t.Errorf("Alloc evicted stream %d, want LRU stream %d", victim, sis[1])
	}
	// The victim comes back empty; the touched stream keeps its record.
	if s.Covers(200) || !s.Covers(100) {
		t.Errorf("after the eviction: covers 200 %v, 100 %v; want false, true", s.Covers(200), s.Covers(100))
	}
}

func TestSABFillDeadStreamIgnored(t *testing.T) {
	s := MustNewSAB(sabCfg())
	s.FillRegions(0, []Region{{Trigger: 5}}, 0) // never allocated
	if s.Covers(5) {
		t.Error("fill of dead stream took effect")
	}
}

func TestSABInvariantsProperty(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		s := MustNewSAB(sabCfg())
		rng := trace.NewRNG(seed)
		for _, op := range ops {
			blk := trace.BlockAddr(op % 512)
			switch rng.Intn(3) {
			case 0:
				si := s.Alloc()
				n := 1 + rng.Intn(20)
				recs := make([]Region, n)
				for i := range recs {
					recs[i] = Region{Trigger: blk + trace.BlockAddr(i*10), Vec: uint16(rng.Intn(128))}
				}
				s.FillRegions(si, recs, uint64(n))
			case 1:
				s.Advance(blk)
			case 2:
				s.Covers(blk)
			}
			if err := s.CheckInvariants(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSABRejectsBadConfig(t *testing.T) {
	if _, err := newSAB(SABConfig{}); err == nil {
		t.Error("zero config accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewSAB should panic")
		}
	}()
	MustNewSAB(SABConfig{})
}

// sabReference is the SAB's naive twin: each stream a queue of Regions
// probed with Region.Contains, the first covering (stream, record) in index
// order, LRU stream allocation, oldest-first eviction past Capacity and the
// pfIdx issue window — no parallel arrays and no filter.
type sabReference struct {
	cfg     SABConfig
	streams []refStream
	clock   uint64
}

type refStream struct {
	queue   []Region
	pfIdx   int
	nextPos uint64
	lastUse uint64
	live    bool
}

func newSABReference(cfg SABConfig) *sabReference {
	return &sabReference{cfg: cfg, streams: make([]refStream, cfg.Streams)}
}

func (r *sabReference) find(blk trace.BlockAddr) (si, ri int, ok bool) {
	for si, st := range r.streams {
		if !st.live {
			continue
		}
		for ri, rec := range st.queue {
			if rec.Contains(blk, r.cfg.Span) {
				return si, ri, true
			}
		}
	}
	return 0, 0, false
}

func (r *sabReference) Advance(blk trace.BlockAddr) (si, needed int, ok bool) {
	si, ri, ok := r.find(blk)
	if !ok {
		return 0, 0, false
	}
	st := &r.streams[si]
	st.queue = st.queue[ri:]
	st.pfIdx = max(st.pfIdx-ri, 0)
	r.clock++
	st.lastUse = r.clock
	n := len(st.queue)
	return si, max(min(r.cfg.Lookahead-n, r.cfg.Capacity-n), 0), true
}

func (r *sabReference) Alloc() int {
	victim := -1
	for i, st := range r.streams {
		if !st.live {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i, st := range r.streams {
			if st.lastUse < r.streams[victim].lastUse {
				victim = i
			}
		}
	}
	r.clock++
	r.streams[victim] = refStream{lastUse: r.clock, live: true}
	return victim
}

func (r *sabReference) FillRegions(si int, recs []Region, nextPos uint64) {
	st := &r.streams[si]
	if !st.live {
		return
	}
	st.queue = append(append([]Region(nil), st.queue...), recs...)
	if over := len(st.queue) - r.cfg.Capacity; over > 0 {
		st.queue = st.queue[over:]
		st.pfIdx = max(st.pfIdx-over, 0)
	}
	st.nextPos = nextPos
}

func (r *sabReference) TakePrefetchBlocks(si int, skip trace.BlockAddr, dst []trace.BlockAddr) []trace.BlockAddr {
	st := &r.streams[si]
	if !st.live {
		return dst
	}
	end := min(r.cfg.Lookahead, len(st.queue))
	for i := st.pfIdx; i < end; i++ {
		for _, b := range st.queue[i].Blocks(nil, r.cfg.Span) {
			if b != skip {
				dst = append(dst, b)
			}
		}
	}
	st.pfIdx = max(st.pfIdx, end)
	return dst
}

// checkSABOps decodes data into a SAB configuration — streams 1–8,
// capacity 1–16, lookahead 1 to capacity+2, span 2–16 — and a run of
// Advance, Alloc, FillRegions and TakePrefetchBlocks calls, makes each
// call on a SAB and on sabReference, and fails at the first result, queue
// or counter that differs or the first broken invariant. Triggers and
// probed blocks fall in a 256-block window at the bottom, the top (up to
// trace.MaxBlockAddr) or anywhere of the address space, so records overlap
// and probes hit. It returns how many Advance calls a stream covered.
func checkSABOps(t *testing.T, data []byte) (covered int) {
	t.Helper()
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	cfg := SABConfig{Streams: 1 + int(next()%8), Capacity: 1 + int(next()%16), Span: 2 + int(next()%15)}
	cfg.Lookahead = 1 + int(next())%(cfg.Capacity+2)
	var base uint64
	switch next() % 4 {
	case 0:
	case 1:
		base = uint64(trace.MaxBlockAddr) - 255
	default:
		for i := 0; i < 5; i++ {
			base = base<<8 | uint64(next())
		}
		base %= uint64(trace.MaxBlockAddr) - 254
	}
	blk := func() trace.BlockAddr { return trace.BlockAddr(base + uint64(next())) }
	s, ref := MustNewSAB(cfg), newSABReference(cfg)
	for op := 0; len(data) > 0; op++ {
		switch next() % 4 {
		case 0:
			b := blk()
			si, needed, ok := s.Advance(b)
			rsi, rneeded, rok := ref.Advance(b)
			if si != rsi || needed != rneeded || ok != rok {
				t.Fatalf("%+v op %d: Advance(%d) = (%d, %d, %v), reference (%d, %d, %v)", cfg, op, b, si, needed, ok, rsi, rneeded, rok)
			}
			if ok {
				covered++
			}
		case 1:
			if si, rsi := s.Alloc(), ref.Alloc(); si != rsi {
				t.Fatalf("%+v op %d: Alloc = %d, reference %d", cfg, op, si, rsi)
			}
		case 2:
			si := int(next()) % cfg.Streams
			recs := make([]Region, int(next())%(2*cfg.Capacity+1))
			for i := range recs {
				recs[i] = Region{Trigger: blk(), Vec: uint16(next())<<8 | uint16(next())}
			}
			pos := uint64(next())
			s.FillRegions(si, recs, pos)
			ref.FillRegions(si, recs, pos)
			if s.NextPos(si) != ref.streams[si].nextPos || s.StreamLen(si) != len(ref.streams[si].queue) {
				t.Fatalf("%+v op %d: stream %d holds %d records to %d, reference %d to %d", cfg, op, si,
					s.StreamLen(si), s.NextPos(si), len(ref.streams[si].queue), ref.streams[si].nextPos)
			}
		case 3:
			si, skip := int(next())%cfg.Streams, blk()
			got := s.TakePrefetchBlocks(si, skip, nil)
			if want := ref.TakePrefetchBlocks(si, skip, nil); !slices.Equal(got, want) {
				t.Fatalf("%+v op %d: TakePrefetchBlocks(%d, %d) = %v, reference %v", cfg, op, si, skip, got, want)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%+v op %d: %v", cfg, op, err)
		}
	}
	live := 0
	for _, st := range ref.streams {
		if st.live {
			live++
		}
	}
	if s.LiveStreams() != live {
		t.Fatalf("%+v: %d live streams, reference %d", cfg, s.LiveStreams(), live)
	}
	return covered
}

// TestSABMatchesReference runs random configurations and operation
// sequences on the SAB and its naive twin.
func TestSABMatchesReference(t *testing.T) {
	rng := trace.NewRNG(1)
	covered := 0
	for i := 0; i < 2000; i++ {
		data := make([]byte, 16+rng.Intn(600))
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		covered += checkSABOps(t, data)
	}
	if covered < 1000 {
		t.Fatalf("only %d Advance calls hit a stream: the comparison proves little", covered)
	}
}

// FuzzSAB is TestSABMatchesReference over fuzzer-chosen configurations
// and operations.
func FuzzSAB(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 11, 6, 4, 0, 1, 2, 0, 3, 10, 0, 2, 0, 12, 0, 0, 0, 10, 3, 0, 10})
	f.Add([]byte{7, 15, 14, 17, 1, 1, 1, 2, 1, 5, 250, 0, 255, 255, 252, 1, 0, 4, 255, 3, 1, 255})
	f.Fuzz(func(t *testing.T, data []byte) { checkSABOps(t, data) })
}

// Test-only operations: only this package's tests call these, so they
// live in a test file rather than in the product.

// Covers reports whether blk falls inside any queued region of any live
// stream, without modifying state.
func (s *SAB) Covers(blk trace.BlockAddr) bool {
	_, _, ok := s.find(blk)
	return ok
}

// StreamLen returns the queued record count of stream si.
func (s *SAB) StreamLen(si int) int { return len(s.streams[si].trig) }

// LiveStreams returns the number of live streams.
func (s *SAB) LiveStreams() int {
	n := 0
	for i := range s.streams {
		if s.streams[i].live {
			n++
		}
	}
	return n
}

// CheckInvariants verifies stream bounds and filters; used by property
// tests.
func (s *SAB) CheckInvariants() error {
	if len(s.streams) != s.cfg.Streams {
		return fmt.Errorf("history: stream count %d != %d", len(s.streams), s.cfg.Streams)
	}
	for i := range s.streams {
		st := &s.streams[i]
		if len(st.trig) != len(st.cov) {
			return fmt.Errorf("history: stream %d trigger/coverage length mismatch", i)
		}
		if n := len(st.trig); n > s.cfg.Capacity {
			return fmt.Errorf("history: stream %d holds %d > capacity %d", i, n, s.cfg.Capacity)
		}
		if !st.live && len(st.trig) > 0 {
			return fmt.Errorf("history: dead stream %d holds records", i)
		}
		var filter uint64
		for ri, t := range st.trig {
			if st.cov[ri]&1 == 0 {
				return fmt.Errorf("history: stream %d region %d missing trigger coverage bit", i, ri)
			}
			filter |= residues(t, st.cov[ri])
		}
		if st.filter != filter {
			return fmt.Errorf("history: stream %d filter %#x, its records cover %#x", i, st.filter, filter)
		}
	}
	return nil
}
