package shift

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"shift/internal/area"
	"shift/internal/core"
	"shift/internal/pif"
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
	id := StreamID{c.Workload, c.Cores, c.WarmupRecords, c.MeasureRecords, c.Sampling.internal().Normalized()}
	if id.cores == 0 {
		id.cores = 16
	}
	if id.warm == 0 {
		id.warm = 60000
	}
	if id.meas == 0 {
		id.meas = 60000
	}
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
// repeated sweeps skip already-computed cells. It is safe for
// concurrent use by the engine's workers; a nil *ResultCache is a valid
// no-op store (every Lookup misses, Store discards). Contents die with
// the process — use a BlobStore to persist across runs.
type ResultCache struct {
	mu           sync.Mutex
	m            map[string]RunResult
	hits, misses int64
}

// NewResultCache returns an empty cache. Share one cache across
// experiment runs (through the Options.Engine built on it) to reuse cells
// between figures — most figures re-run the same per-workload baselines.
func NewResultCache() *ResultCache {
	return &ResultCache{m: make(map[string]RunResult)}
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
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return r, ok
}

// Store memoizes a result under key, replacing any previous entry.
func (c *ResultCache) Store(key string, r RunResult) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = r
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
	const cores = 16
	shiftCfg := core.DefaultConfig()
	pif32, pif2 := pif.Config32K(), pif.Config2K()
	r := &StorageReport{
		PIF32KPerCoreKB:   float64(area.PIFStorageBytes(pif32.HistEntries, pif32.IndexEntries)) / 1024,
		PIF32KPerCoreMM2:  DesignPIF32K.areaPerCore(cores),
		PIF2KPerCoreKB:    float64(area.PIFStorageBytes(pif2.HistEntries, pif2.IndexEntries)) / 1024,
		SHIFTHistoryKB:    float64(shiftCfg.HistoryFootprintBytes()) / 1024,
		SHIFTHistoryLines: shiftCfg.HistoryBlocks(),
		SHIFTIndexKB:      float64(area.SHIFTIndexBytes(llcBytesTotal)) / 1024,
		SHIFTTotalMM2:     area.SHIFTTotalAreaMM2(llcBytesTotal),
		VirtualizedPIFMB:  float64(area.VirtualizedPIFLLCBytes(pif32.HistEntries, cores)) / (1024 * 1024),
		Cores:             cores,
	}
	r.PIF32KAggregateMM2 = r.PIF32KPerCoreMM2 * cores
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
