// Package trace defines the retire-order instruction fetch trace records
// exchanged between the synthetic workload generators, the prefetchers, and
// the timing simulator, together with a compact binary codec for storing
// traces on disk.
//
// The unit of interest for instruction prefetching is the 64-byte
// instruction cache block (the paper's spatial-region machinery operates on
// block addresses). A Record therefore describes one visit to an instruction
// block in retire order: the block address, how many instructions retired
// during the visit, and the control-flow event that ended the visit.
package trace

import (
	"errors"
	"fmt"
	"io"
)

// Physical address geometry. The paper assumes a 40-bit physical address
// space and 64-byte cache blocks (Section 4.2, "Hardware cost").
const (
	// BlockBytes is the size of an instruction cache block.
	BlockBytes = 64
	// blockShift is log2(BlockBytes).
	blockShift = 6
	// addrBits is the width of a physical byte address.
	addrBits = 40
	// BlockAddrBits is the width of a physical block address (40-6=34 bits,
	// matching the 34-bit trigger addresses in the paper's storage math).
	BlockAddrBits = addrBits - blockShift
	// MaxBlockAddr is the largest representable block address.
	MaxBlockAddr BlockAddr = (1 << BlockAddrBits) - 1
)

// Addr is a physical byte address.
type Addr uint64

// BlockAddr is a physical address at cache-block granularity (Addr >> 6).
type BlockAddr uint64

// Addr returns the byte address of the first byte in the block.
func (b BlockAddr) Addr() Addr { return Addr(b << blockShift) }

// String formats the block address in hex at byte granularity.
func (b BlockAddr) String() string { return fmt.Sprintf("0x%x", uint64(b)<<blockShift) }

// Kind describes the control-flow event that terminated a block visit.
// It lets consumers distinguish sequential fall-through (which a next-line
// prefetcher can cover) from discontinuities (which it cannot).
type Kind uint8

const (
	// KindSeq means execution fell through to the sequentially next block.
	KindSeq Kind = iota
	// KindBranch means a taken branch redirected fetch inside the same
	// routine (target may be any block).
	KindBranch
	// KindCall means a function call redirected fetch to a callee.
	KindCall
	// KindReturn means a return redirected fetch back to a caller.
	KindReturn
	// KindTrap means an OS trap/interrupt/context switch redirected fetch
	// into system code (the paper's "spontaneous events": scheduler, TLB
	// miss handlers, interrupts).
	KindTrap
	kindCount
)

var kindNames = [...]string{"seq", "branch", "call", "return", "trap"}

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// valid reports whether k is one of the defined kinds.
func (k Kind) valid() bool { return k < kindCount }

// Record is one retire-order visit to an instruction cache block.
type Record struct {
	// Block is the instruction block address being fetched from.
	Block BlockAddr
	// Instrs is the number of instructions retired during this visit
	// (at least 1; a 64-byte block holds at most 16 4-byte instructions,
	// but a visit may re-execute a loop body within a block).
	Instrs uint16
	// Kind is the control-flow event that ended the visit.
	Kind Kind
}

// Validate checks internal consistency of the record.
func (r Record) Validate() error {
	if r.Block > MaxBlockAddr {
		return fmt.Errorf("trace: block address %#x exceeds %d bits", uint64(r.Block), BlockAddrBits)
	}
	if r.Instrs == 0 {
		return errors.New("trace: record with zero retired instructions")
	}
	if !r.Kind.valid() {
		return fmt.Errorf("trace: invalid kind %d", r.Kind)
	}
	return nil
}

// Reader yields successive trace records. Implementations must return
// io.EOF after the final record.
type Reader interface {
	// Next returns the next record, or io.EOF when the trace is exhausted.
	Next() (Record, error)
}

// SliceReader adapts an in-memory record slice to the Reader interface.
type SliceReader struct {
	recs []Record
	pos  int
}

// NewSliceReader returns a Reader over recs. The slice is not copied.
func NewSliceReader(recs []Record) *SliceReader { return &SliceReader{recs: recs} }

// Next implements Reader.
func (s *SliceReader) Next() (Record, error) {
	if s.pos >= len(s.recs) {
		return Record{}, io.EOF
	}
	r := s.recs[s.pos]
	s.pos++
	return r, nil
}

// Supply implements Supplier: the records remaining before EOF.
func (s *SliceReader) Supply() int64 { return int64(len(s.recs) - s.pos) }

// Collect drains r into a slice, up to max records (max<=0 means unlimited).
func Collect(r Reader, max int) ([]Record, error) {
	var out []Record
	for max <= 0 || len(out) < max {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// Supplier is implemented by readers that know how many records they
// can still produce. Consumers with a fixed record budget (the
// simulator's warmup+measure window) use it to reject an undersized
// stream up front instead of silently measuring a shorter window.
// Unbounded readers (the synthetic workload generators) do not
// implement it.
type Supplier interface {
	// Supply returns the number of records the reader can still
	// deterministically produce.
	Supply() int64
}

// Limit wraps r so that at most n records are produced.
func Limit(r Reader, n int64) Reader { return &limitReader{r: r, n: n} }

type limitReader struct {
	r Reader
	n int64
}

func (l *limitReader) Next() (Record, error) {
	if l.n <= 0 {
		return Record{}, io.EOF
	}
	l.n--
	return l.r.Next()
}

// Supply implements Supplier: the remaining limit, clamped by the
// underlying reader's own supply when it declares one.
func (l *limitReader) Supply() int64 {
	if s, ok := l.r.(Supplier); ok {
		if under := s.Supply(); under < l.n {
			return under
		}
	}
	return l.n
}

// Stats summarizes a trace: record/instruction counts, unique block
// footprint, and the control-flow kind mix. It is used by cmd/tracegen and
// by workload calibration tests.
type Stats struct {
	Records      int64
	Instructions int64
	UniqueBlocks int
	KindCounts   [int(kindCount)]int64
}

// FootprintBytes returns the instruction footprint touched by the trace.
func (s Stats) FootprintBytes() int64 { return int64(s.UniqueBlocks) * BlockBytes }

// SeqFraction returns the fraction of records that ended with sequential
// fall-through; this is the upper bound on next-line prefetcher coverage.
func (s Stats) SeqFraction() float64 {
	if s.Records == 0 {
		return 0
	}
	return float64(s.KindCounts[KindSeq]) / float64(s.Records)
}

// Measure drains r (up to max records; max<=0 unlimited) and returns stats.
func Measure(r Reader, max int64) (Stats, error) {
	var st Stats
	seen := make(map[BlockAddr]struct{})
	for max <= 0 || st.Records < max {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return st, err
		}
		st.Records++
		st.Instructions += int64(rec.Instrs)
		st.KindCounts[rec.Kind]++
		if _, ok := seen[rec.Block]; !ok {
			seen[rec.Block] = struct{}{}
		}
	}
	st.UniqueBlocks = len(seen)
	return st, nil
}
