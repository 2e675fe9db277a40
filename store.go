package shift

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"

	"shift/internal/store"
)

// This file defines the result-storage subsystem consumed by the
// experiment engine: the ResultStore interface and its persistent
// backend, BlobStore (one JSON blob per Config.Key over a blob tier — a
// content-addressed directory, a cluster peer, or memory — optionally
// fronted by a ResultCache and a circuit breaker that degrades to
// memory-only when that tier is failing). The in-memory backend,
// ResultCache, predates the interface and lives in storage.go.

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
// and corrupt blobs are quarantined for inspection (StoreHealth), and a
// failing blob tier trips a circuit breaker rather than being paid for
// on every cell. Two backends are provided: ResultCache (memory, dies
// with the process) and BlobStore (survives restarts, shareable between
// processes; tiered, it adds memory speed over that durability — the
// default for anything long-running).
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
	// BreakerState is the blob-tier circuit breaker state ("closed",
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

// BlobStore is the persistent ResultStore: one JSON-encoded RunResult
// per Config.Key on a blob tier, read and written through one
// resilience stack — retry of transient IO (three tries under
// internal/retry's jittered backoff) below CRC-32C integrity footers. On
// a directory (<dir>/<key[:2]>/<key>.json) writes are atomic (temp file
// + rename), so any number of processes may share it: concurrent
// writers of one cell write identical bytes, and readers never observe a
// torn blob.
//
// Every blob is verified on read; one that fails verification — or
// whose payload no longer decodes — is moved to the tier's quarantine
// (<dir>/quarantine/ on a directory), counted in StoreHealth, and its
// key self-heals on the next Store. Blobs written before integrity
// checking are read unverified, so existing directories stay valid.
// JSON keeps blobs greppable and round-trips every RunResult field
// exactly (encoding/json emits the shortest float64 representation that
// parses back to the same bits).
//
// A tiered store (NewTieredStore, NewTieredRemoteStore,
// NewTieredStoreOver) adds an in-memory ResultCache in front — lookups
// try memory first and promote blob hits into it, stores write through
// to both — and puts the blob tier behind a circuit breaker: when its
// errors spike (a failing device, a full filesystem, an unreachable
// peer) the breaker trips and the store runs memory-only instead of
// paying the failing tier's latency on every cell, until a half-open
// probe after the cooldown finds the tier healthy again. This is the
// backend behind `shiftsim -cache-dir` and the shiftd service.
//
// A nil *BlobStore is a valid no-op store. IO and decode failures are
// absorbed as misses or dropped writes and counted in StoreHealth.
type BlobStore struct {
	blobs   *store.Integrity // integrity over retry over base
	base    store.Blobs      // raw footered tier (what BlobTier serves)
	disk    *store.Disk      // base when it is a directory, for the on-disk quarantine count
	mem     *ResultCache     // memory tier; nil (a no-op) unless tiered
	breaker *store.Breaker   // guards base; nil (always allows) unless tiered

	hits, misses, errors, memOnly, lastLen atomic.Int64
}

// NewDiskStore opens (creating if necessary) a store rooted at dir.
func NewDiskStore(dir string) (*BlobStore, error) {
	disk, err := store.OpenDisk(dir)
	if err != nil {
		return nil, err
	}
	return newBlobStore(disk, false), nil
}

// NewRemoteStore returns a store whose blobs live on a cluster peer:
// reads and writes go to the peer's /v1/blobs routes (any shiftd with a
// blob tier serves them) through the usual stack, so a blob corrupted
// on the remote disk, in the peer process, or on the wire fails the
// local CRC check exactly as a local bit-flip would, and the key
// self-heals on the next Store. A nil client selects a default with a
// 30-second timeout. baseURL is the peer's blob mount, e.g.
// "http://coordinator:8080/v1/blobs".
//
// Coordinator and workers pointed at one peer's blob tier converge on
// a single content-addressed result store: a cell computed anywhere in
// the cluster is a store hit everywhere.
func NewRemoteStore(baseURL string, client *http.Client) *BlobStore {
	return newBlobStore(store.NewRemote(baseURL, client), false)
}

// NewTieredStore opens (creating if necessary) a tiered store whose
// blob tier is rooted at dir.
func NewTieredStore(dir string) (*BlobStore, error) {
	disk, err := store.OpenDisk(dir)
	if err != nil {
		return nil, err
	}
	return newBlobStore(disk, true), nil
}

// NewTieredRemoteStore returns a tiered store whose blob tier is a
// cluster peer's (see NewRemoteStore): memory speed for hot cells, the
// shared remote tier for durability and cross-process reuse, and the
// breaker in between — while the peer is unreachable the store runs
// memory-only. This is the store behind shiftd's -store-url.
func NewTieredRemoteStore(baseURL string, client *http.Client) *BlobStore {
	return newBlobStore(store.NewRemote(baseURL, client), true)
}

// NewTieredStoreOver returns a tiered store over an arbitrary blob
// backend. A shiftd worker without a cache directory uses it over an
// in-memory blob tier so it still has raw footered blobs to serve to
// cluster peers.
func NewTieredStoreOver(base store.Blobs) *BlobStore {
	return newBlobStore(base, true)
}

// newBlobStore assembles the stack over base and seeds the last known
// blob count. A tiered store gets a memory tier and the default breaker
// (trip on 8 failures within the last 16 blob-tier operations, probe
// every 5s).
func newBlobStore(base store.Blobs, tiered bool) *BlobStore {
	s := &BlobStore{
		blobs: store.WithIntegrity(store.WithRetry(base, nil)),
		base:  base,
	}
	s.disk, _ = base.(*store.Disk)
	if tiered {
		s.mem = NewResultCache()
		s.breaker = store.NewBreaker(store.BreakerConfig{})
	}
	if n, err := s.blobs.Len(); err == nil {
		s.lastLen.Store(int64(n))
	}
	return s
}

// record accounts one blob-tier outcome: an absorbed error counts in
// Errors, and the breaker hears whether the tier failed. Corruption is
// a data problem the quarantine already isolated — the tier itself is
// healthy — so only genuine IO failures count toward tripping.
func (s *BlobStore) record(err error) {
	if err != nil {
		s.errors.Add(1)
	}
	s.breaker.Record(err != nil && !errors.Is(err, store.ErrCorrupt))
}

// BlobTier returns the store's raw blob backend — the layer below
// integrity checking, holding blobs with their CRC footers attached.
// This is the tier a cluster process serves to peers over /v1/blobs:
// serving raw footered bytes lets remote clients verify the CRC
// end-to-end over the wire.
func (s *BlobStore) BlobTier() store.Blobs {
	if s == nil {
		return nil
	}
	return s.base
}

// Memory returns the store's memory tier, nil unless it is tiered: the
// in-memory result table shiftd's job registry shares (jobs.Config.Results).
func (s *BlobStore) Memory() *ResultCache {
	if s == nil {
		return nil
	}
	return s.mem
}

// Lookup returns the result stored under key: from memory, else read,
// verified and decoded from the blob tier (and promoted into memory).
// While the breaker is open the blob tier is skipped and a memory miss
// is a store miss. Every call counts once, as a hit or a miss.
func (s *BlobStore) Lookup(key string) (RunResult, bool) {
	if s == nil {
		return RunResult{}, false
	}
	r, ok := s.mem.Lookup(key)
	if !ok {
		r, ok = s.lookupBlob(key)
	}
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return r, ok
}

// lookupBlob is Lookup's blob-tier half. An unreadable blob is a miss
// and an error; a corrupt one also lands in quarantine.
func (s *BlobStore) lookupBlob(key string) (RunResult, bool) {
	if !s.breaker.Allow() {
		s.memOnly.Add(1)
		return RunResult{}, false
	}
	var r RunResult
	blob, ok, err := s.blobs.Get(key)
	if ok && json.Unmarshal(blob, &r) != nil {
		// The bytes passed (or predate) the CRC but the payload no
		// longer decodes — a torn or corrupt legacy blob. Quarantine it
		// so the corruption is observed once and the key self-heals,
		// instead of being re-missed forever; a failed move is the
		// tier's error.
		r, ok, err = RunResult{}, false, store.ErrCorrupt
		if qerr := s.blobs.Quarantine(key); qerr != nil {
			err = qerr
		}
	}
	s.record(err)
	if ok {
		s.mem.Store(key, r)
	}
	return r, ok
}

// Store writes the result through to memory and the blob tier. A failed
// write is dropped (and counted): the store is a cache, not a ledger.
// While the breaker is open the write lands in memory only; the cells
// skipped this way are recomputed and re-persisted after the tier
// recovers.
func (s *BlobStore) Store(key string, r RunResult) {
	if s == nil {
		return
	}
	s.mem.Store(key, r)
	if !s.breaker.Allow() {
		s.memOnly.Add(1)
		return
	}
	blob, err := json.Marshal(r)
	if err == nil {
		err = s.blobs.Put(key, blob)
	}
	s.record(err)
}

// Len returns the number of stored cells: the blob tier's count — a
// counter read over a directory (no walk), a retried request over a
// remote peer — or the memory tier's, if writes have failed and it is
// larger. When the tier cannot be counted right now, or the breaker is
// not closed, the last known count stands in — never a misleading zero.
// A count is evidence against the tier, never for it: a failed one
// feeds the breaker, a successful one records nothing and is never the
// half-open probe, however often a dashboard polls.
func (s *BlobStore) Len() int {
	if s == nil {
		return 0
	}
	n := int(s.lastLen.Load())
	if st := s.breaker.State(); st == store.BreakerOpen || st == store.BreakerHalfOpen {
		s.memOnly.Add(1)
	} else if counted, err := s.blobs.Len(); err != nil {
		s.record(err)
	} else {
		n = counted
		s.lastLen.Store(int64(n))
	}
	return max(n, s.mem.Len())
}

// Stats returns the cumulative Lookup hit/miss counts: a hit in either
// tier is one hit, anything else one miss.
func (s *BlobStore) Stats() (hits, misses int64) {
	if s == nil {
		return 0, 0
	}
	return s.hits.Load(), s.misses.Load()
}

// Health returns the store's failure-handling snapshot. Quarantined is
// the directory's count — blobs present at open plus this handle's — or
// this handle's alone over any other tier.
func (s *BlobStore) Health() StoreHealth {
	if s == nil {
		return StoreHealth{}
	}
	h := StoreHealth{
		Errors:       s.errors.Load(),
		Quarantined:  s.blobs.Quarantined(),
		BreakerState: s.breaker.State(),
		BreakerTrips: s.breaker.Trips(),
		MemOnlyOps:   s.memOnly.Load(),
	}
	if s.disk != nil {
		h.Quarantined = s.disk.QuarantineLen()
	}
	if rem, ok := s.base.(*store.Remote); ok {
		h.Remote, h.RemoteErrors = true, rem.Errors()
	}
	return h
}
