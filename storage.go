package shift

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"shift/internal/area"
	"shift/internal/core"
	"shift/internal/sim"
	"shift/internal/stats"
)

// This file holds the analytical storage-cost report of the paper's
// Sections 4.2/5.1/5.6/6.2 (StorageReport, below), plus the
// content-address scheme (Config.Key) and in-memory backend
// (ResultCache) of the engine's result storage. The ResultStore
// interface and its persistent backend (BlobStore) live in store.go;
// Engine.RunAll in engine.go consumes them.

// Key returns a stable content hash of the configuration. Two Configs
// share a key iff they describe the same simulation, so the key
// content-addresses memoized results: a cached RunResult under this key
// is bit-identical to re-running the cell (the simulator is a pure
// function of its Config).
//
// A sampled cell appends its whole sampling policy — normalized, so a
// policy written with defaulted fields and one spelling them out hash
// identically — to the hashed identity; sampled and exact results, and
// sampled results under genuinely different policies, can therefore
// never collide in any ResultStore backend, while exact cells keep
// their historical ("v1") keys and existing disk stores stay valid.
//
// The hashed identity is the bytes fmt.Sprintf would render for
// "v1|%q|%d|%d|%d|%d|%t|%t|%g|%d|%d|%d" over the fields below (plus
// "|sampled|%d|%d|%g|%g" for a sampled policy), a float zero always
// unsigned, built with strconv's appenders instead: the key is on every
// cell's path, and TestConfigKeyMatchesFormat pins the two renderings byte
// for byte.
func (c Config) Key() string {
	var buf [160]byte
	b := append(buf[:0], "v1|"...)
	b = strconv.AppendQuote(b, c.Workload)
	b = appendInts(b, int64(c.Design), int64(c.CoreType), int64(c.Cores), int64(c.HistEntries))
	b = append(b, '|')
	b = strconv.AppendBool(b, c.PredictionOnly)
	b = append(b, '|')
	b = strconv.AppendBool(b, c.CommonalityMode)
	b = appendFloats(b, c.ElimProb)
	b = appendInts(b, c.WarmupRecords, c.MeasureRecords, c.Seed)
	if p := c.Sampling.internal().Normalized(); p.Enabled() {
		b = append(b, "|sampled"...)
		b = appendInts(b, p.Period, p.IntervalRecords)
		b = appendFloats(b, p.WarmupFraction, p.Confidence)
	}
	return hashKey(b)
}

// appendInts appends "|%d" for each v.
func appendInts(b []byte, vs ...int64) []byte {
	for _, v := range vs {
		b = strconv.AppendInt(append(b, '|'), v, 10)
	}
	return b
}

// appendFloats appends "|%g" for each v (strconv's shortest 'g' form is
// fmt's %g, NaN and ±Inf included), with -0 rendered as 0: the two compare
// equal, so Configs that are == must share a key.
func appendFloats(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		if v == 0 {
			v = 0
		}
		b = strconv.AppendFloat(append(b, '|'), v, 'g', -1, 64)
	}
	return b
}

// hashKey renders an identity as a content address: the hex of its
// SHA-256's first 16 bytes.
func hashKey(id []byte) string {
	h := sha256.Sum256(id)
	var dst [32]byte
	hex.Encode(dst[:], h[:16])
	return string(dst[:])
}

// StreamID identifies, as a comparable value, the record stream a Config
// consumes and the schedule it is consumed on: the configuration's trace
// -stream inputs — the workload, the core count, and the warmup/measure
// window lengths, zero values resolved to their defaults — plus the
// sampling policy, which fixes the lockstep schedule every batch member
// must share. Everything else — design point, seed, core type, history
// sizes, simulation mode, miss elimination — only changes how records are
// consumed, never which records are generated or on what schedule, so two
// Configs with equal StreamIDs read bit-identical per-core record streams
// in lockstep. The engine and shiftd's job queue partition cells into the
// batches RunBatch executes off a single generated stream by it; sampled
// and exact cells of one workload therefore batch separately (their
// stepping schedules are incompatible) while each group still shares its
// stream internally.
type StreamID struct {
	workload   string
	cores      int
	warm, meas int64
	// sampling is normalized and without its Confidence, which shapes
	// only how the error bounds are reported, never the lockstep
	// schedule: cells differing only in confidence still batch together.
	sampling sim.Sampling
}

// Stream returns the identity of the record stream and schedule c
// consumes (see StreamID).
func (c Config) Stream() StreamID {
	r := c.Resolved()
	id := StreamID{r.Workload, r.Cores, r.WarmupRecords, r.MeasureRecords, r.Sampling.internal()}
	id.sampling.Confidence = 0
	return id
}

// StreamKey returns Stream as a stable content hash: equal for exactly
// the Configs whose StreamIDs are equal, and a string, for whatever routes
// or labels by stream (a cluster coordinator picks a batch's worker by
// it). Its identity renders "s1|%q|%d|%d|%d" (plus "|sampled|%d|%d|%g")
// the way Key does.
func (c Config) StreamKey() string {
	s := c.Stream()
	var buf [128]byte
	b := append(buf[:0], "s1|"...)
	b = strconv.AppendQuote(b, s.workload)
	b = appendInts(b, int64(s.cores), s.warm, s.meas)
	if p := s.sampling; p.Enabled() {
		b = append(b, "|sampled"...)
		b = appendInts(b, p.Period, p.IntervalRecords)
		b = appendFloats(b, p.WarmupFraction)
	}
	return hashKey(b)
}

// ResultCache is the in-memory ResultStore: a mutex-guarded map of
// memoized simulation results content-addressed by Config key, so
// repeated sweeps skip already-computed cells, and the process's one
// in-memory result table: shiftd's job registry (jobs.Config.Results)
// shares its results by reference (Share, Release). It is safe for
// concurrent use by the engine's workers; a nil *ResultCache is a valid
// no-op store (every Lookup misses, Store discards). Contents die with
// the process — use a BlobStore to persist across runs.
type ResultCache struct {
	mu sync.Mutex
	m  map[string]*RunResult
	// shared maps a key to its first referenced entry; slots holds every
	// referenced entry at its slot, nil at a free one, and free is the
	// stack of free slots.
	shared       map[string]*SharedResult
	slots        []*SharedResult
	free         []uint32
	hits, misses int64
}

// SharedResult is a reference-counted entry of a ResultCache: a key, its
// result, which never changes, and, once a second reference reuses it,
// the result's encoding. It holds its slot until its last reference is
// released.
type SharedResult struct {
	key string
	// encoded points at r's encoding/json bytes (nil bytes if encoding/json
	// rejects r): set under the cache's lock, read without it.
	encoded    atomic.Pointer[[]byte]
	r          *RunResult
	slot, refs uint32 // guarded by the cache's lock
}

// Key returns the entry's content address.
func (s *SharedResult) Key() string { return s.key }

// Result points at the entry's result, which must not be written through.
func (s *SharedResult) Result() *RunResult { return s.r }

// Slot returns the entry's index in Slots.
func (s *SharedResult) Slot() uint32 { return s.slot }

// JSON returns the result's encoding/json bytes, nil until a second
// reference reuses the entry, and for a nil entry. The bytes must not be
// modified.
func (s *SharedResult) JSON() []byte {
	if s == nil || s.encoded.Load() == nil {
		return nil
	}
	return *s.encoded.Load() // set once, never unset
}

// NewResultCache returns an empty cache. Share one cache across
// experiment runs (through the Options.Engine built on it) to reuse cells
// between figures — most figures re-run the same per-workload baselines.
func NewResultCache() *ResultCache {
	return &ResultCache{m: make(map[string]*RunResult), shared: make(map[string]*SharedResult)}
}

// Lookup returns the memoized result for key, if any, and counts the
// outcome toward Stats.
func (c *ResultCache) Lookup(key string) (RunResult, bool) {
	if c == nil {
		return RunResult{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[key]
	if !ok {
		c.misses++
		return RunResult{}, false
	}
	c.hits++
	return *r, true
}

// Store memoizes a result under key, replacing any previous entry. The
// key's referenced entry is the stored one when its bits are r's, and a
// replaced result stays with its references.
func (c *ResultCache) Store(key string, r RunResult) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.shared[key]; s != nil && sameBits(s.r, &r) {
		c.m[key] = s.r
	} else if old := c.m[key]; old == nil || !sameBits(old, &r) {
		c.m[key] = &r
	}
}

// Share returns a reference to a result r under key: the key's entry when
// its result is bit for bit r, else a fresh one — the key's if it has
// none — pointing at the stored result when that is bit for bit r and at
// a copy otherwise. == equates 0 and -0 and never holds for a NaN, so
// floats are compared by their bits and a NaN is never shared: no
// referenced result changes whatever later arrives under its key. A
// reused entry gains its encoding the first time.
func (c *ResultCache) Share(key string, r *RunResult) *SharedResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.shared[key]
	if ok && sameBits(s.r, r) {
		if s.encoded.Load() == nil {
			b, _ := json.Marshal(s.r) // nil if encoding/json rejects it
			s.encoded.Store(&b)
		}
		s.refs++
		return s
	}
	fresh := &SharedResult{key: key, r: c.m[key], refs: 1}
	if fresh.r == nil || !sameBits(fresh.r, r) {
		cp := *r
		fresh.r = &cp
	}
	if n := len(c.free); n > 0 {
		fresh.slot, c.free = c.free[n-1], c.free[:n-1]
		c.slots[fresh.slot] = fresh
	} else {
		fresh.slot = uint32(len(c.slots))
		c.slots = append(c.slots, fresh)
	}
	if !ok {
		c.shared[key] = fresh
	}
	return fresh
}

// Release drops a reference Share returned; the last one frees the
// entry's slot and key, and the result too unless it is stored.
func (c *ResultCache) Release(s *SharedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.refs--; s.refs > 0 {
		return
	}
	c.slots[s.slot] = nil
	c.free = append(c.free, s.slot)
	if c.shared[s.key] == s {
		delete(c.shared, s.key)
	}
}

// Slots returns the referenced entries, each at its Slot.
func (c *ResultCache) Slots() []*SharedResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slots
}

// Shared returns the number of keys with a referenced entry.
func (c *ResultCache) Shared() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.shared)
}

// Len returns the number of memoized cells.
func (c *ResultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns the lookup hit/miss counts since creation.
func (c *ResultCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// sameBits reports whether a == b and every float of a has the bits of
// b's: == alone equates 0 and -0, which encode differently.
func sameBits(a, b *RunResult) bool {
	if *a != *b {
		return false
	}
	fa, fb := floats(a), floats(b)
	for i := range fa {
		if math.Float64bits(*fa[i]) != math.Float64bits(*fb[i]) {
			return false
		}
	}
	return true
}

// floats points at every float field of r (TestSharedResultsCompareBits
// checks that the list is complete).
func floats(r *RunResult) [11]*float64 {
	return [...]*float64{
		&r.Throughput, &r.MPKI, &r.FetchStallFraction, &r.BranchAccuracy,
		&r.MissCoverage, &r.AccessCoverage, &r.SampleConfidence,
		&r.MPKIStdErr, &r.MPKICI, &r.ThroughputStdErr, &r.ThroughputCI,
	}
}

// StorageReport reproduces the storage-cost arithmetic of Sections 4.2,
// 5.1, 5.6, and 6.2 — the numbers behind the paper's storage-cost
// headline. It is purely analytical (no simulation).
type StorageReport struct {
	// PIF32KPerCoreKB is PIF's per-core history+index storage.
	PIF32KPerCoreKB float64
	// PIF32KPerCoreMM2 is its area.
	PIF32KPerCoreMM2 float64
	// PIF32KAggregateMM2 is the 16-core total.
	PIF32KAggregateMM2 float64
	// PIF2KPerCoreKB is the equal-cost design's per-core storage.
	PIF2KPerCoreKB float64
	// SHIFTHistoryKB is the LLC capacity the shared history occupies.
	SHIFTHistoryKB float64
	// SHIFTHistoryLines is that capacity in 64-byte LLC lines.
	SHIFTHistoryLines int
	// SHIFTIndexKB is the LLC tag-array extension.
	SHIFTIndexKB float64
	// SHIFTTotalMM2 is SHIFT's total area cost.
	SHIFTTotalMM2 float64
	// AreaRatio is PIF32KAggregateMM2 / SHIFTTotalMM2.
	AreaRatio float64
	// VirtualizedPIFMB is the LLC capacity a virtualized per-core PIF
	// would need (Section 6.2; it grows linearly with cores).
	VirtualizedPIFMB float64
	// Cores is the CMP size used for aggregates.
	Cores int
}

// RunStorageReport computes the storage report for a 16-core Table I CMP.
func RunStorageReport() *StorageReport {
	shiftCfg := core.DefaultConfig()
	pif32, pif2 := core.PIFConfig(core.PIF32K), core.PIFConfig(core.PIF2K)
	r := &StorageReport{
		PIF32KPerCoreKB:   float64(area.PIFStorageBytes(pif32.HistEntries, pif32.IndexEntries)) / 1024,
		PIF32KPerCoreMM2:  DesignPIF32K.areaPerCore(area.TableICores),
		PIF2KPerCoreKB:    float64(area.PIFStorageBytes(pif2.HistEntries, pif2.IndexEntries)) / 1024,
		SHIFTHistoryKB:    float64(shiftCfg.HistoryFootprintBytes()) / 1024,
		SHIFTHistoryLines: shiftCfg.HistoryBlocks(),
		SHIFTIndexKB:      float64(area.SHIFTIndexBytes()) / 1024,
		SHIFTTotalMM2:     area.SHIFTTotalAreaMM2(),
		VirtualizedPIFMB:  float64(area.VirtualizedPIFLLCBytes(pif32.HistEntries)) / (1024 * 1024),
		Cores:             area.TableICores,
	}
	r.PIF32KAggregateMM2 = r.PIF32KPerCoreMM2 * area.TableICores
	if r.SHIFTTotalMM2 > 0 {
		r.AreaRatio = r.PIF32KAggregateMM2 / r.SHIFTTotalMM2
	}
	return r
}

// String renders the storage table.
func (r *StorageReport) String() string {
	t := stats.NewTable("Quantity", "Value", "Paper")
	t.AddRow("PIF_32K per-core storage", fmt.Sprintf("%.0f KB", r.PIF32KPerCoreKB), paper("storage.pif32k_kb").text)
	t.AddRow("PIF_32K per-core area", fmt.Sprintf("%.2f mm^2", r.PIF32KPerCoreMM2), paper("storage.pif32k_mm2").text)
	t.AddRow(fmt.Sprintf("PIF_32K aggregate (%d cores)", r.Cores), fmt.Sprintf("%.1f mm^2", r.PIF32KAggregateMM2), paper("storage.pif32k_total_mm2").text)
	t.AddRow("PIF_2K per-core storage", fmt.Sprintf("%.1f KB", r.PIF2KPerCoreKB), paper("storage.pif2k_kb").text)
	t.AddRow("SHIFT history in LLC", fmt.Sprintf("%.0f KB (%d lines)", r.SHIFTHistoryKB, r.SHIFTHistoryLines), paper("storage.shift_history_kb").text+" ("+paper("storage.shift_history_lines").text+")")
	t.AddRow("SHIFT index in LLC tags", fmt.Sprintf("%.0f KB", r.SHIFTIndexKB), paper("storage.shift_index_kb").text)
	t.AddRow("SHIFT total area", fmt.Sprintf("%.2f mm^2", r.SHIFTTotalMM2), paper("storage.shift_mm2").text)
	t.AddRow("PIF_32K/SHIFT area ratio", fmt.Sprintf("%.1fx", r.AreaRatio), paper("storage.area_ratio").text)
	t.AddRow("Virtualized per-core PIF (Sec 6.2)", fmt.Sprintf("%.1f MB of LLC", r.VirtualizedPIFMB), paper("storage.virtualized_pif_mb").text)
	var b strings.Builder
	b.WriteString("Storage and area budget (Sections 4.2, 5.1, 5.6, 6.2)\n")
	b.WriteString(t.String())
	return b.String()
}
