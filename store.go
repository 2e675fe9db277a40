package shift

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"shift/internal/store"
)

// This file defines the result-storage subsystem consumed by the
// experiment engine: the ResultStore interface and its two persistent
// backends, DiskStore (one JSON blob per Config.Key under a
// content-addressed directory) and TieredStore (ResultCache over
// DiskStore, with a circuit breaker that degrades to memory-only when
// the disk tier is failing). The in-memory backend, ResultCache,
// predates the interface and lives in storage.go.

// ResultStore persists simulation results content-addressed by
// Config.Key. The engine treats a store strictly as a memo table:
// because the simulator is a pure function of its Config, a stored
// RunResult is bit-identical to re-running the cell, so serving from
// the store never changes experiment output — only how fast it arrives.
//
// Implementations must be safe for concurrent use by the engine's
// workers, and must degrade softly: a backend failure (unreadable file,
// corrupt blob, full disk) is reported as a miss or a dropped write,
// never an experiment error — but never silently: failures are counted
// (Errors), corrupt blobs are quarantined for inspection (Quarantined),
// and a failing disk tier trips a circuit breaker (StoreHealth) rather
// than being paid for on every cell. Three backends are provided:
// ResultCache (memory, dies with the process), DiskStore (survives
// restarts, shareable between processes), and TieredStore (memory speed
// over disk durability — the default for anything long-running).
type ResultStore interface {
	// Lookup returns the stored result for key, if any.
	Lookup(key string) (RunResult, bool)
	// Store persists a result under key, replacing any previous entry.
	Store(key string, r RunResult)
	// Len returns the number of stored cells.
	Len() int
	// Stats returns the cumulative Lookup hit/miss counts.
	Stats() (hits, misses int64)
}

// StoreHealth is a point-in-time snapshot of a persistent store's
// failure-handling state, consumed by shiftd's /v1/readyz, /v1/stats,
// and /v1/metrics. Stores without a failing-backend concept (the
// in-memory ResultCache) simply don't implement Health.
type StoreHealth struct {
	// Errors counts absorbed backend failures (IO, corruption, decode)
	// since creation. A healthy store reports zero; a growing count
	// means results are being recomputed instead of served.
	Errors int64
	// Quarantined counts corrupt blobs moved aside into the store's
	// quarantine directory — each was detected once, preserved for
	// inspection, and its key self-heals on the next write. Non-zero
	// means the directory deserves a look before being deleted.
	Quarantined int64
	// BreakerState is the disk-tier circuit breaker state ("closed",
	// "open", "half-open"), or empty for stores without a breaker.
	BreakerState string
	// BreakerTrips counts transitions into the open state.
	BreakerTrips int64
	// MemOnlyOps counts operations absorbed by the memory tier while
	// the breaker was open (lookups served as misses, writes not
	// persisted, counts answered from the last known value).
	MemOnlyOps int64
	// Remote reports a persistent tier on a cluster peer (NewRemoteStore).
	Remote bool
	// RemoteErrors counts the failed operations against that peer
	// (transport errors and bad statuses, every retry included).
	RemoteErrors int64
}

// HealthReporter is the optional ResultStore extension for stores that
// track failure-handling state; shiftd feeds it into /v1/readyz and
// /v1/metrics.
type HealthReporter interface {
	// Health returns the store's failure-handling snapshot.
	Health() StoreHealth
}

// DiskStore is the disk-backed ResultStore: one JSON-encoded RunResult
// per Config.Key under a content-addressed directory
// (<dir>/<key[:2]>/<key>.json). Writes are atomic (temp file + rename),
// so any number of processes may share one directory — concurrent
// writers of the same cell write identical bytes, and readers never
// observe a torn blob; a crash mid-write leaves only an invisible
// temporary file.
//
// Every blob is written with a CRC-32C integrity footer and verified on
// read; a blob that fails verification — or whose payload no longer
// decodes — is moved to <dir>/quarantine/ (preserved for inspection,
// counted by Quarantined) and the key self-heals on the next Store.
// Blobs written before integrity checking are read unverified, so
// existing directories stay valid. Transient IO errors are retried
// with jittered backoff before being absorbed; full-disk and
// permission errors fail fast. JSON keeps blobs greppable and
// editor-friendly, and round-trips every RunResult field exactly
// (encoding/json emits the shortest float64 representation that parses
// back to the same bits).
//
// A nil *DiskStore is a valid no-op store. IO and decode failures are
// absorbed as misses or dropped writes and counted by Errors.
type DiskStore struct {
	blobs                *store.Integrity
	base                 store.Blobs // raw footered tier (what BlobTier serves)
	disk                 *store.Disk // base layer; nil in fault-injected test stacks
	hits, misses, errors atomic.Int64
	lastLen              atomic.Int64
}

// NewDiskStore opens (creating if necessary) a disk store rooted at
// dir.
func NewDiskStore(dir string) (*DiskStore, error) {
	disk, err := store.OpenDisk(dir)
	if err != nil {
		return nil, err
	}
	return newDiskStoreStack(disk, disk), nil
}

// NewRemoteStore returns a ResultStore whose blobs live on a cluster
// peer: reads and writes go to the peer's /v1/blobs routes (any shiftd
// with a blob tier serves them) through the same resilience stack as
// DiskStore — jittered retry below CRC-32C verification — so a blob
// corrupted on the remote disk, in the peer process, or on the wire
// fails the local CRC check exactly as a local bit-flip would, and the
// key self-heals on the next Store. A nil client selects a default
// with a 30-second timeout. baseURL is the peer's blob mount, e.g.
// "http://coordinator:8080/v1/blobs".
//
// Coordinator and workers pointed at one peer's blob tier converge on
// a single content-addressed result store: a cell computed anywhere in
// the cluster is a store hit everywhere.
func NewRemoteStore(baseURL string, client *http.Client) *DiskStore {
	return newDiskStoreStack(store.NewRemote(baseURL, client), nil)
}

// newDiskStoreStack assembles the resilience stack over base — retry
// (jittered backoff for transient IO) below integrity (CRC footers,
// quarantine on corruption) — and seeds the last-known blob count.
// disk is the base *store.Disk when base is (or wraps) one, nil when
// the stack runs over an in-memory or remote backend.
func newDiskStoreStack(base store.Blobs, disk *store.Disk) *DiskStore {
	s := &DiskStore{
		blobs: store.WithIntegrity(store.WithRetry(base, store.RetryPolicy{})),
		base:  base,
		disk:  disk,
	}
	if n, err := s.blobs.Len(); err == nil {
		s.lastLen.Store(int64(n))
	}
	return s
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string {
	if s == nil || s.disk == nil {
		return ""
	}
	return s.disk.Dir()
}

// BlobTier returns the store's raw blob backend — the layer below
// integrity checking, holding blobs with their CRC footers attached.
// This is the tier a cluster process serves to peers over /v1/blobs:
// serving raw footered bytes lets remote clients verify the CRC
// end-to-end over the wire. Nil for stores without a blob backend.
func (s *DiskStore) BlobTier() store.Blobs {
	if s == nil {
		return nil
	}
	return s.base
}

// Lookup reads, verifies, and decodes the result stored under key. An
// unreadable blob counts as a miss (and toward Errors); a corrupt blob
// additionally lands in quarantine and its key self-heals on the next
// Store.
func (s *DiskStore) Lookup(key string) (RunResult, bool) {
	r, ok, _ := s.lookupErr(key)
	return r, ok
}

// lookupErr is Lookup with the absorbed error exposed, so TieredStore
// can feed its circuit breaker. Corruption is reported wrapped in
// store.ErrCorrupt — a data problem the quarantine already handled, not
// a disk-health signal.
func (s *DiskStore) lookupErr(key string) (RunResult, bool, error) {
	if s == nil {
		return RunResult{}, false, nil
	}
	blob, ok, err := s.blobs.Get(key)
	if err != nil {
		s.errors.Add(1)
	}
	if err != nil || !ok {
		s.misses.Add(1)
		return RunResult{}, false, err
	}
	var r RunResult
	if derr := json.Unmarshal(blob, &r); derr != nil {
		// The bytes passed (or predate) the CRC but the payload no
		// longer decodes — a torn or corrupt legacy blob. Quarantine it
		// so the corruption is observed once and the key self-heals,
		// instead of being re-missed forever.
		s.errors.Add(1)
		s.misses.Add(1)
		s.blobs.Quarantine(key)
		return RunResult{}, false, fmt.Errorf("%w: decoding result: %v", store.ErrCorrupt, derr)
	}
	s.hits.Add(1)
	return r, true, nil
}

// Store atomically writes the result under key. A write failure is
// dropped (and counted by Errors): the store is a cache, not a ledger.
func (s *DiskStore) Store(key string, r RunResult) {
	s.storeErr(key, r)
}

// storeErr is Store with the absorbed error exposed, so TieredStore
// can feed its circuit breaker.
func (s *DiskStore) storeErr(key string, r RunResult) error {
	if s == nil {
		return nil
	}
	blob, err := json.Marshal(r)
	if err == nil {
		err = s.blobs.Put(key, blob)
	}
	if err != nil {
		s.errors.Add(1)
	}
	return err
}

// Len returns the number of cells this handle has observed: those on
// disk at open plus its own writes — a counter read over a directory
// (no walk), a retried request over a remote peer. When the backend
// cannot be counted right now, Len returns the last known count — never
// a misleading zero that reads like an empty store — and the failure
// lands in Errors.
func (s *DiskStore) Len() int {
	n, _ := s.lenErr()
	return n
}

// lenErr is Len with the absorbed error exposed, so TieredStore can
// feed its circuit breaker.
func (s *DiskStore) lenErr() (int, error) {
	if s == nil {
		return 0, nil
	}
	n, err := s.blobs.Len()
	if err != nil {
		s.errors.Add(1)
		return int(s.lastLen.Load()), err
	}
	s.lastLen.Store(int64(n))
	return n, nil
}

// Stats returns the cumulative Lookup hit/miss counts.
func (s *DiskStore) Stats() (hits, misses int64) {
	if s == nil {
		return 0, 0
	}
	return s.hits.Load(), s.misses.Load()
}

// Errors returns the number of absorbed backend failures (IO, corrupt
// blob, or decode) since creation. A healthy store reports zero; a
// growing count means results are being silently recomputed — check
// the directory and /v1/readyz.
func (s *DiskStore) Errors() int64 {
	if s == nil {
		return 0
	}
	return s.errors.Load()
}

// Quarantined returns the number of corrupt blobs held in
// <dir>/quarantine: those present at open plus every corruption
// detected by this handle. Each quarantined key reads as a miss and is
// recreated by the next Store of the same cell; the quarantined bytes
// stay on disk for inspection until an operator deletes them.
func (s *DiskStore) Quarantined() int64 {
	if s == nil {
		return 0
	}
	if s.disk != nil {
		return s.disk.QuarantineLen()
	}
	return s.blobs.Quarantined()
}

// Health returns the store's failure-handling snapshot. DiskStore has
// no breaker of its own (that belongs to TieredStore, which has a
// memory tier to degrade to), so the breaker fields are zero.
func (s *DiskStore) Health() StoreHealth {
	h := StoreHealth{Errors: s.Errors(), Quarantined: s.Quarantined()}
	if rem, ok := s.BlobTier().(*store.Remote); ok {
		h.Remote, h.RemoteErrors = true, rem.Errors()
	}
	return h
}

// TieredStore layers an in-memory ResultCache over a DiskStore: Lookup
// tries memory first and promotes disk hits into memory, Store writes
// through to both. It serves hot cells at map speed while every result
// survives process restarts — the backend behind `shiftsim -cache-dir`
// and the shiftd service.
//
// The disk tier sits behind a circuit breaker: when disk errors spike
// (a failing device, a full filesystem), the breaker trips and the
// store runs memory-only — hot cells keep serving and new results keep
// landing in memory — instead of paying the failing disk's latency on
// every cell. After a cooldown the breaker lets one half-open probe
// through; a healthy disk closes it and write-through resumes. The
// breaker state is visible in Health and shiftd's /v1/readyz.
//
// A nil *TieredStore is a valid no-op store.
type TieredStore struct {
	mem     *ResultCache
	disk    *DiskStore
	breaker *store.Breaker
	memOnly atomic.Int64
}

// NewTieredStore opens (creating if necessary) a tiered store whose
// disk layer is rooted at dir.
func NewTieredStore(dir string) (*TieredStore, error) {
	disk, err := NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	return newTieredStore(disk), nil
}

// NewTieredRemoteStore returns a tiered store whose persistent layer is
// a cluster peer's blob tier (see NewRemoteStore) instead of a local
// directory: memory speed for hot cells, the shared remote tier for
// durability and cross-process reuse, and the usual circuit breaker in
// between — when the peer is unreachable the breaker trips and the
// store runs memory-only until a half-open probe finds it healthy
// again. This is the store behind shiftd's -store-url.
func NewTieredRemoteStore(baseURL string, client *http.Client) *TieredStore {
	return newTieredStore(NewRemoteStore(baseURL, client))
}

// NewTieredStoreOver assembles a tiered store — memory over the full
// retry/integrity/breaker resilience stack — on an arbitrary blob
// backend. A shiftd worker without a cache directory uses it over an
// in-memory blob tier so it still has raw footered blobs to serve to
// cluster peers.
func NewTieredStoreOver(base store.Blobs) *TieredStore {
	var disk *store.Disk
	if d, ok := base.(*store.Disk); ok {
		disk = d
	}
	return newTieredStore(newDiskStoreStack(base, disk))
}

// newTieredStore assembles a tiered store over an existing disk layer
// with the default breaker policy (trip on 8 failures within the last
// 16 disk operations, probe every 5s).
func newTieredStore(disk *DiskStore) *TieredStore {
	return &TieredStore{
		mem:     NewResultCache(),
		disk:    disk,
		breaker: store.NewBreaker(store.BreakerConfig{}),
	}
}

// diskFailure classifies an absorbed disk-tier error for the breaker:
// corruption is a data problem the quarantine already isolated — the
// disk itself is healthy — so only genuine IO failures count toward
// tripping.
func diskFailure(err error) bool {
	return err != nil && !errors.Is(err, store.ErrCorrupt)
}

// Lookup returns the result for key from the memory tier, falling back
// to disk (promoting a disk hit into memory for next time). While the
// breaker is open the disk tier is skipped entirely: a memory miss is
// a store miss, and the engine recomputes the cell.
func (s *TieredStore) Lookup(key string) (RunResult, bool) {
	if s == nil {
		return RunResult{}, false
	}
	if r, ok := s.mem.Lookup(key); ok {
		return r, true
	}
	if !s.breaker.Allow() {
		s.memOnly.Add(1)
		return RunResult{}, false
	}
	r, ok, err := s.disk.lookupErr(key)
	s.breaker.Record(diskFailure(err))
	if ok {
		s.mem.Store(key, r)
	}
	return r, ok
}

// Store writes the result through to both tiers. While the breaker is
// open the write lands in memory only; the cells skipped this way are
// recomputed (and re-persisted) after the disk recovers — the store is
// a cache, so nothing is lost but work.
func (s *TieredStore) Store(key string, r RunResult) {
	if s == nil {
		return
	}
	s.mem.Store(key, r)
	if !s.breaker.Allow() {
		s.memOnly.Add(1)
		return
	}
	err := s.disk.storeErr(key, r)
	s.breaker.Record(diskFailure(err))
}

// Len returns the number of stored cells: the disk tier's count, which
// is authoritative (memory holds a subset), unless disk writes have
// failed, in which case the memory tier may be larger. Over a remote
// peer a count is a request, so unless the breaker is closed the disk
// tier's last known count stands in. A count is evidence against the
// tier, never for it: a failed one feeds the breaker, a successful one
// (over a directory, a counter read that cannot fail) records nothing
// and is never the half-open probe, however often a dashboard polls.
func (s *TieredStore) Len() int {
	if s == nil {
		return 0
	}
	if s.breaker.State() != store.BreakerClosed {
		s.memOnly.Add(1)
		return max(int(s.disk.lastLen.Load()), s.mem.Len())
	}
	n, err := s.disk.lenErr()
	if err != nil {
		s.breaker.Record(true)
	}
	return max(n, s.mem.Len())
}

// Stats returns the tiered hit/miss counts: a hit in either tier is a
// hit, a miss means both tiers missed. (Memory-tier promotions are not
// double-counted: disk hits and memory hits are disjoint lookups.)
func (s *TieredStore) Stats() (hits, misses int64) {
	if s == nil {
		return 0, 0
	}
	memHits, _ := s.mem.Stats()
	diskHits, diskMisses := s.disk.Stats()
	return memHits + diskHits, diskMisses
}

// Errors returns the disk tier's absorbed-failure count (see
// DiskStore.Errors).
func (s *TieredStore) Errors() int64 {
	if s == nil {
		return 0
	}
	return s.disk.Errors()
}

// Quarantined returns the disk tier's quarantined-blob count (see
// DiskStore.Quarantined).
func (s *TieredStore) Quarantined() int64 {
	if s == nil {
		return 0
	}
	return s.disk.Quarantined()
}

// BlobTier returns the persistent layer's raw blob backend (see
// DiskStore.BlobTier); a cluster process serves it to peers over
// /v1/blobs.
func (s *TieredStore) BlobTier() store.Blobs {
	if s == nil {
		return nil
	}
	return s.disk.BlobTier()
}

// Health returns the store's failure-handling snapshot, including the
// disk-tier circuit breaker.
func (s *TieredStore) Health() StoreHealth {
	if s == nil {
		return StoreHealth{}
	}
	h := s.disk.Health()
	h.BreakerState = s.breaker.State()
	h.BreakerTrips = s.breaker.Trips()
	h.MemOnlyOps = s.memOnly.Load()
	return h
}
