// Package core implements SHIFT, the paper's contribution: a shared-
// history instruction prefetcher for lean-core server CMPs (Section 4).
//
// One history generator core records its retire-order instruction-cache
// access stream as spatial region records into a single history buffer
// shared by all cores running the workload. Every core owns only a light
// stream-address-buffer file and replays the shared history to prefetch.
//
// Two variants are provided:
//
//   - Dedicated: the history buffer and index table are dedicated SRAM
//     reachable in zero cycles. This is the paper's "ZeroLat-SHIFT"
//     comparison point (Section 5.3), which isolates SHIFT's prediction
//     quality from its LLC-residency costs. With one core per history it
//     is also PIF (PIFConfig) and, recording misses, TIFS (TIFSConfig).
//
//   - Virtualized: the history buffer lives in the LLC at a reserved,
//     non-evictable physical range starting at HBBase, written through a
//     12-record cache-block buffer (CBB); the index table is folded into
//     the LLC tag array as a pointer per instruction-block tag
//     (Section 4.2). History reads/writes and index updates become LLC
//     traffic with real latency, mediated by the LLCBackend interface.
//
// Workload consolidation (Section 4.3) instantiates one SharedHistory per
// workload, each with its own generator core and HBBase; see NewGroups.
package core

import (
	"fmt"

	"shift/internal/history"
	"shift/internal/prefetch"
	"shift/internal/trace"
)

// Variant selects the history storage implementation.
type Variant int

const (
	// Dedicated is zero-latency dedicated storage (ZeroLat-SHIFT).
	Dedicated Variant = iota
	// Virtualized embeds the history in the LLC (the real SHIFT design).
	Virtualized
)

// String names the variant as in the paper's figures.
func (v Variant) String() string {
	switch v {
	case Dedicated:
		return "ZeroLat-SHIFT"
	case Virtualized:
		return "SHIFT"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// hbBaseBlock is the default base block address of the reserved history
// range (paper: "reserves a small portion of the physical address space
// that is hidden from the operating system"). It sits far above both code
// regions.
const hbBaseBlock trace.BlockAddr = 0xC000000

// LLCBackend is what virtualized SHIFT needs from the LLC and
// interconnect. The simulator implements it; unit tests use fakes.
type LLCBackend interface {
	// PointerFor returns the index pointer piggybacked on core's demand
	// LLC access for instruction block blk (Section 4.2 replay step 1).
	// ok is false when the block is not LLC-resident or has no pointer.
	PointerFor(core int, blk trace.BlockAddr) (ptr uint32, ok bool)
	// UpdatePointer sets blk's pointer in the LLC tag array, if blk is
	// resident (recording step 2), and accounts index-update traffic.
	UpdatePointer(core int, blk trace.BlockAddr, ptr uint32)
	// ReadHistoryBlock accounts a history-buffer block read by core and
	// returns the round-trip latency in cycles (replay steps 2-3).
	ReadHistoryBlock(core int, hbBlock trace.BlockAddr) int64
	// WriteHistoryBlock accounts a CBB flush into the LLC (recording
	// step 4). The flush is off every core's critical path, so its
	// latency is never charged.
	WriteHistoryBlock(core int, hbBlock trace.BlockAddr)
}

// Config parameterizes one shared history and its per-core replay logic.
type Config struct {
	// Variant selects dedicated (ZeroLat) or LLC-virtualized storage.
	Variant Variant
	// HistEntries is the shared history capacity in region records
	// (32K in the paper's design).
	HistEntries int
	// GeneratorCore is the single core that records the history
	// ("one core picked at random", Section 6.1).
	GeneratorCore int
	// SAB configures each core's stream address buffers.
	SAB history.SABConfig
	// HBBase is the base block address of the virtualized history range.
	HBBase trace.BlockAddr
	// AllocOnAccess makes replay start on any uncovered access rather
	// than only on misses; used by the Section 3 commonality study,
	// which replays streams at access granularity.
	AllocOnAccess bool
	// IndexEntries/IndexAssoc size the dedicated variant's index table.
	// Zero means one entry per history record (the virtualized design's
	// effective capacity is the whole LLC tag array, so the dedicated
	// stand-in is not artificially capacity-limited).
	IndexEntries, IndexAssoc int
	// RecordMisses makes the generator record its L1-I miss stream, one
	// single-block record a miss, instead of compacting its access
	// stream into spatial regions: TIFS's policy (see missRecorder).
	RecordMisses bool
}

// DefaultConfig is the paper's SHIFT design point.
func DefaultConfig() Config {
	return Config{
		Variant:       Virtualized,
		HistEntries:   32768,
		GeneratorCore: 0,
		SAB:           history.DefaultSABConfig(),
		HBBase:        hbBaseBlock,
	}
}

// PIF32K and PIF2K are the history sizes, in records a core, of the
// paper's two PIF design points (Section 5.1): the original design
// (~213KB a core, for 90% miss coverage), and the size whose 16 cores
// together store as much as SHIFT's LLC tag extension.
const (
	PIF32K = 32768
	PIF2K  = 2048
)

// PIFConfig is the history of Proactive Instruction Fetch (Ferdman et
// al., MICRO 2011) at n records: dedicated storage, indexed by a 4-way
// table of n/4 entries (at least one per stream), that its core alone
// records and replays — 8K index entries at PIF32K, 512 at PIF2K. The
// paper builds SHIFT out of PIF's history and stream address buffers
// (Section 4); here PIF is SHIFT's replay engine over a history of one
// core. Figure 6 rescales it.
func PIFConfig(n int) Config {
	c := DefaultConfig()
	c.Variant = Dedicated
	c.HistEntries = n
	c.IndexAssoc = 4
	c.IndexEntries = max(n/4, c.SAB.Streams)
	c.IndexEntries += (c.IndexAssoc - c.IndexEntries%c.IndexAssoc) % c.IndexAssoc
	return c
}

// TIFSConfig is the history of Temporal Instruction Fetch Streaming
// (Ferdman et al., MICRO 2008), the miss-stream predecessor of PIF: PIF's
// 32K-record geometry, recording misses. It is not part of the paper's
// evaluated set; it measures the access-vs-miss-stream choice of Section
// 2.2.
func TIFSConfig() Config {
	c := PIFConfig(PIF32K)
	c.RecordMisses = true
	return c
}

// Validate reports the first problem with c, or nil.
func (c Config) Validate() error {
	if c.HistEntries <= 0 {
		return fmt.Errorf("core: HistEntries %d <= 0", c.HistEntries)
	}
	if c.GeneratorCore < 0 {
		return fmt.Errorf("core: GeneratorCore %d < 0", c.GeneratorCore)
	}
	if c.Variant != Dedicated && c.Variant != Virtualized {
		return fmt.Errorf("core: unknown variant %d", c.Variant)
	}
	if c.IndexEntries < 0 {
		return fmt.Errorf("core: IndexEntries %d < 0", c.IndexEntries)
	}
	if c.IndexEntries > 0 && (c.IndexAssoc <= 0 || c.IndexEntries%c.IndexAssoc != 0) {
		return fmt.Errorf("core: bad index table %d/%d", c.IndexEntries, c.IndexAssoc)
	}
	// The history's blocks go through the LLC, whose tags hold
	// trace.BlockAddrBits-bit blocks.
	if lo, hi := c.HBRange(); hi < lo || hi > trace.MaxBlockAddr+1 {
		return fmt.Errorf("core: history range [%#x, %#x) ends above block %#x", lo, hi, trace.MaxBlockAddr)
	}
	return c.SAB.Validate()
}

// recordsPerBlock returns how many region records share one history cache
// block (12 at the paper's span of 8).
func (c Config) recordsPerBlock() int { return history.RecordsPerCacheBlock(c.SAB.Span) }

// HistoryBlocks returns the number of LLC blocks the virtualized history
// occupies (2,731 at the paper's design point).
func (c Config) HistoryBlocks() int {
	rpb := c.recordsPerBlock()
	return (c.HistEntries + rpb - 1) / rpb
}

// HistoryFootprintBytes returns the LLC capacity consumed by the history
// (171KB at the paper's design point).
func (c Config) HistoryFootprintBytes() int {
	return c.HistoryBlocks() * trace.BlockBytes
}

// HBRange returns the [lo, hi) block range of the virtualized history.
func (c Config) HBRange() (lo, hi trace.BlockAddr) {
	return c.HBBase, c.HBBase + trace.BlockAddr(c.HistoryBlocks())
}

// SharedHistory is the single history shared by all cores running one
// workload: the generator-side recording state plus the storage.
type SharedHistory struct {
	cfg     Config
	buf     *history.Buffer
	index   *history.IndexTable // dedicated variant only
	builder *history.Builder
	backend LLCBackend // virtualized variant only

	// generator is the core currently recording the history. It starts
	// at cfg.GeneratorCore and may be rotated at runtime (the Section 6.1
	// sampling mechanism for long-lasting control-flow deviations).
	generator int
	rotations int64

	cbbCount int // records accumulated in the cache-block buffer
}

// newSharedHistory builds the shared history for a run of at most writes
// rounds (0: unbounded), which sizes the buffer's host storage (see
// history.NewBuffer). backend is required for the Virtualized variant and
// ignored for Dedicated.
func newSharedHistory(cfg Config, writes int, backend LLCBackend) (*SharedHistory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Variant == Virtualized && backend == nil {
		return nil, fmt.Errorf("core: virtualized SHIFT requires an LLC backend")
	}
	sh := &SharedHistory{cfg: cfg, backend: backend, generator: cfg.GeneratorCore}
	buf, err := history.NewBuffer(cfg.HistEntries, writes)
	if err != nil {
		return nil, err
	}
	sh.buf = buf
	sh.builder = history.MustNewBuilder(cfg.SAB.Span)
	if cfg.Variant == Dedicated {
		entries, assoc := cfg.IndexEntries, cfg.IndexAssoc
		if entries == 0 {
			entries, assoc = cfg.HistEntries, 8
			for entries%assoc != 0 {
				entries++
			}
		}
		sh.index = history.MustNewIndexTable(entries, assoc)
	}
	return sh, nil
}

// Release hands the history (and, for the dedicated variant, index)
// storage back for the next newSharedHistory of the same sizes (see
// history.Buffer.Release). The caller must not use sh, or any Replayer
// made from it, again.
func (sh *SharedHistory) Release() {
	sh.buf.Release()
	if sh.index != nil {
		sh.index.Release()
	}
}

// Config returns the configuration.
func (sh *SharedHistory) Config() Config { return sh.cfg }

// Generator returns the core currently recording the shared history.
func (sh *SharedHistory) Generator() int { return sh.generator }

// SetGenerator hands history recording over to another core (Section 6.1:
// "a sampling mechanism that monitors the instruction miss coverage and
// changes the history generator core accordingly"). The region builder
// and cache-block buffer restart; history contents and index pointers
// remain valid, so replay continues uninterrupted.
func (sh *SharedHistory) SetGenerator(coreID int) {
	if coreID == sh.generator {
		return
	}
	sh.generator = coreID
	sh.builder.Reset()
	sh.cbbCount = 0
	sh.rotations++
}

// Rotations returns how many times the generator role moved.
func (sh *SharedHistory) Rotations() int64 { return sh.rotations }

// hbBlockFor maps an absolute record position to its LLC-resident history
// block (write pointer + HBBase, Section 4.2 recording step 3).
func (sh *SharedHistory) hbBlockFor(pos uint64) trace.BlockAddr {
	slot := pos % uint64(sh.cfg.HistEntries)
	return sh.cfg.HBBase + trace.BlockAddr(slot/uint64(sh.cfg.recordsPerBlock()))
}

// append writes one completed region record of the generator core to the
// history: the record itself, then the variant's index update and, once a
// cache block's worth has accumulated, the CBB flush.
func (sh *SharedHistory) append(coreID int, rec history.Region) {
	pos := sh.buf.Append(rec)
	switch sh.cfg.Variant {
	case Dedicated:
		sh.index.Update(rec.Trigger, pos)
	case Virtualized:
		// Index update request to the LLC for the trigger address,
		// carrying the current write pointer (recording step 2). The
		// update is dropped if the trigger block is not LLC-resident.
		// Positions stay below history.MaxWrites, so 32 bits hold one.
		sh.backend.UpdatePointer(coreID, rec.Trigger, uint32(pos))
		// Accumulate into the CBB; flush a full block to the LLC
		// (recording steps 1, 3, 4).
		sh.cbbCount++
		if sh.cbbCount >= sh.cfg.recordsPerBlock() {
			sh.backend.WriteHistoryBlock(coreID, sh.hbBlockFor(pos))
			sh.cbbCount = 0
		}
	}
}

// lookup finds the history position to replay from for a missed block,
// counting into st the lookup, whether it hit and whether it met another
// history's pointer.
func (sh *SharedHistory) lookup(coreID int, blk trace.BlockAddr, st *prefetch.Stats) (uint64, bool) {
	st.IndexLookups++
	switch sh.cfg.Variant {
	case Dedicated:
		pos, ok := sh.index.Lookup(blk)
		if !ok || !sh.buf.Valid(pos) {
			return 0, false
		}
		st.IndexHits++
		return pos, true
	case Virtualized:
		ptr, ok := sh.backend.PointerFor(coreID, blk)
		if !ok {
			return 0, false
		}
		// The LLC holds one pointer per block for every history (Section
		// 4.3), so the pointer may be another history's write position.
		// The record it points at says whose it is: in this history, the
		// record a pointer was set for has the block as its trigger.
		pos := uint64(ptr)
		r, ok := sh.buf.Read(pos)
		if !ok {
			return 0, false // pointer refers to overwritten history
		}
		if r.Trigger != blk {
			st.ForeignPointers++
			return 0, false
		}
		st.IndexHits++
		return pos, true
	}
	return 0, false
}

// History exposes the shared history buffer (read-only use: the
// functional-vs-detailed warm-state differential tests compare history
// contents across stepping modes).
func (sh *SharedHistory) History() *history.Buffer { return sh.buf }
