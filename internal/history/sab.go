package history

import (
	"fmt"
	"math/bits"

	"shift/internal/trace"
)

// SABConfig sizes the per-core stream address buffers. Defaults are the
// paper's tuned values (Section 4.1): four streams, twelve records per
// stream, lookahead of five records.
type SABConfig struct {
	// Streams is the number of concurrent streams replayed per core
	// ("multiple stream buffers (four in our design) to replay multiple
	// streams, which may arise due to frequent traps and context
	// switches").
	Streams int
	// Capacity is the maximum region records queued per stream.
	Capacity int
	// Lookahead is how many records ahead of the stream head are read
	// from the history buffer when a stream starts or advances.
	Lookahead int
	// Span is the spatial region span used for Contains tests.
	Span int
}

// DefaultSABConfig returns the paper's tuned parameters.
func DefaultSABConfig() SABConfig {
	return SABConfig{Streams: 4, Capacity: 12, Lookahead: 5, Span: DefaultRegionSpan}
}

// Validate reports the first problem with c, or nil.
func (c SABConfig) Validate() error {
	switch {
	case c.Streams <= 0:
		return fmt.Errorf("history: SAB streams %d <= 0", c.Streams)
	case c.Capacity <= 0:
		return fmt.Errorf("history: SAB capacity %d <= 0", c.Capacity)
	case c.Lookahead <= 0:
		return fmt.Errorf("history: SAB lookahead %d <= 0", c.Lookahead)
	case c.Span < 2 || c.Span > MaxRegionSpan:
		return fmt.Errorf("history: SAB span %d out of [2,%d]", c.Span, MaxRegionSpan)
	}
	return nil
}

// stream is one replay context: a queue of upcoming region records and
// the history position from which to read further records. pfIdx marks
// how many records from the queue head have already been issued as
// prefetches; the issue window never runs more than Lookahead records
// ahead of the replay point, bounding the prefetches wasted when the
// stream is abandoned.
//
// The queue is stored as parallel trigger/coverage arrays rather than a
// slice of records: the per-record coverage probe (SAB.find, the hottest
// loop of the simulator) then scans a dense array of 8-byte triggers and
// 4-byte bitmaps — a couple of cache lines per stream — instead of
// striding over fat record structs. cov bit i means block Trigger+i is
// covered (bit 0, the trigger itself, is always set).
//
// filter has bit (b mod 64) set for every block b a queued record covers
// — the union of the records' coverage bitmaps, each rotated to its
// trigger's residue — and is kept exact: records joining the queue are
// ORed in, and whenever records leave it the filter is recomputed from
// the at most Capacity that remain. find tests it before scanning the
// queue, so the coverage probe passes over, with one AND, a stream that
// cannot cover the block — the common case on the simulator hot path — and
// a dead stream, whose filter is zero.
type stream struct {
	trig    []uint64
	cov     []uint32
	filter  uint64
	pfIdx   int
	nextPos uint64
	lastUse uint64
	live    bool
}

// SAB is one core's stream address buffer file.
type SAB struct {
	cfg     SABConfig
	streams []stream
	clock   uint64

	allocs    int64
	advances  int64
	evictions int64
}

// newSAB builds a stream address buffer file.
func newSAB(cfg SABConfig) (*SAB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &SAB{cfg: cfg, streams: make([]stream, cfg.Streams)}
	for i := range s.streams {
		// The queues are bounded by Capacity; allocate them once so no
		// steady-state operation allocates.
		s.streams[i].trig = make([]uint64, 0, cfg.Capacity)
		s.streams[i].cov = make([]uint32, 0, cfg.Capacity)
	}
	return s, nil
}

// MustNewSAB panics on config errors.
func MustNewSAB(cfg SABConfig) *SAB {
	s, err := newSAB(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// find locates the first (stream, region) covering blk.
func (s *SAB) find(blk trace.BlockAddr) (si, ri int, ok bool) {
	bit := uint64(1) << (blk & 63)
	for si := range s.streams {
		st := &s.streams[si]
		if st.filter&bit == 0 {
			continue
		}
		cov := st.cov[:len(st.trig)] // hoist the bounds proof out of the scan
		for ri, t := range st.trig {
			if d := uint64(blk) - t; d < MaxRegionSpan && cov[ri]>>d&1 != 0 {
				return si, ri, true
			}
		}
	}
	return 0, 0, false
}

// covMask builds the coverage bitmap of r at the configured span:
// Region.Contains ignores vector bits at or beyond span-1, so they are
// masked out here to keep the cached probe exactly equivalent.
func (s *SAB) covMask(r Region) uint32 {
	vec := uint32(r.Vec) & (1<<(s.cfg.Span-1) - 1)
	return vec<<1 | 1
}

// residues is the filter bits of a record: its coverage bitmap rotated
// so that bit i, block trigger+i, lands on bit (trigger+i) mod 64.
func residues(trig uint64, cov uint32) uint64 {
	return bits.RotateLeft64(uint64(cov), int(trig&63))
}

// drop removes the n oldest queued records of st and recomputes its
// filter from the rest.
func (st *stream) drop(n int) {
	st.trig = append(st.trig[:0], st.trig[n:]...)
	st.cov = append(st.cov[:0], st.cov[n:]...)
	st.pfIdx = max(st.pfIdx-n, 0)
	st.filter = 0
	for i, t := range st.trig {
		st.filter |= residues(t, st.cov[i])
	}
}

// Advance consumes a retired/fetched block. If a live stream covers blk,
// records queued before the covering record are dropped (the stream has
// moved past them), and the call returns the stream index and how many
// replacement records the caller should read from the history buffer to
// keep Lookahead records in flight ahead of the core. Capacity only
// bounds storage; the issue window is the lookahead, which bounds the
// prefetches wasted when a stream is abandoned.
func (s *SAB) Advance(blk trace.BlockAddr) (si, needed int, ok bool) {
	si, ri, ok := s.find(blk)
	if !ok {
		return 0, 0, false
	}
	st := &s.streams[si]
	if ri > 0 {
		st.drop(ri)
	}
	s.clock++
	st.lastUse = s.clock
	s.advances++
	needed = s.cfg.Lookahead - len(st.trig)
	if max := s.cfg.Capacity - len(st.trig); needed > max {
		needed = max
	}
	if needed < 0 {
		needed = 0
	}
	return si, needed, true
}

// Alloc claims a stream for a new replay, evicting the least recently
// used live stream if all are busy. The returned stream is empty.
func (s *SAB) Alloc() int {
	victim := 0
	var victimUse uint64 = ^uint64(0)
	for i := range s.streams {
		if !s.streams[i].live {
			victim, victimUse = i, 0
			break
		}
		if s.streams[i].lastUse < victimUse {
			victim, victimUse = i, s.streams[i].lastUse
		}
	}
	if s.streams[victim].live {
		s.evictions++
	}
	s.clock++
	// Reset in place, keeping the queue backing arrays so steady-state
	// stream turnover does not allocate.
	st := &s.streams[victim]
	st.trig = st.trig[:0]
	st.cov = st.cov[:0]
	st.filter = 0
	st.pfIdx = 0
	st.nextPos = 0
	st.lastUse = s.clock
	st.live = true
	s.allocs++
	return victim
}

// FillRegions appends records to stream si and sets the position from
// which subsequent reads continue. If the queue exceeds capacity, the
// oldest records are evicted (Section 4.1: "the oldest spatial region
// record is evicted to make space"). It performs no steady-state
// allocation.
func (s *SAB) FillRegions(si int, recs []Region, nextPos uint64) {
	st := &s.streams[si]
	if !st.live {
		return
	}
	for _, r := range recs {
		cov := s.covMask(r)
		st.trig = append(st.trig, uint64(r.Trigger))
		st.cov = append(st.cov, cov)
		st.filter |= residues(uint64(r.Trigger), cov)
	}
	if over := len(st.trig) - s.cfg.Capacity; over > 0 {
		st.drop(over)
	}
	st.nextPos = nextPos
}

// TakePrefetchBlocks appends to dst the block addresses covered by the
// un-issued records inside the issue window (the first Lookahead records
// of the queue) — trigger first, then set vector offsets ascending,
// exactly as Region.Blocks orders them — skipping `skip` (the block
// being demand-fetched right now), and marks the records issued.
// Prefetch issue is thus decoupled from history read granularity:
// virtualized SHIFT reads whole 12-record history blocks into the
// queue, but prefetches still trickle out at the lookahead rate as the
// stream advances.
func (s *SAB) TakePrefetchBlocks(si int, skip trace.BlockAddr, dst []trace.BlockAddr) []trace.BlockAddr {
	st := &s.streams[si]
	if !st.live {
		return dst
	}
	end := s.cfg.Lookahead
	if end > len(st.trig) {
		end = len(st.trig)
	}
	for i := st.pfIdx; i < end; i++ {
		t := trace.BlockAddr(st.trig[i])
		for cov := st.cov[i]; cov != 0; cov &= cov - 1 {
			b := t + trace.BlockAddr(bits.TrailingZeros32(cov))
			if b != skip {
				dst = append(dst, b)
			}
		}
	}
	if end > st.pfIdx {
		st.pfIdx = end
	}
	return dst
}

// NextPos returns the history position stream si continues reading from.
func (s *SAB) NextPos(si int) uint64 { return s.streams[si].nextPos }
