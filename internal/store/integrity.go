package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"sync/atomic"
)

// ErrCorrupt marks a blob whose integrity footer failed verification:
// the stored bytes are not the bytes that were written. Callers treat
// it as a miss (the blob has been quarantined and will be recreated by
// the next Put of the same key), never retry it (re-reading corrupt
// bytes yields the same corrupt bytes), and may count it separately
// from transient IO failures.
var ErrCorrupt = errors.New("store: corrupt blob")

// footerMarker introduces the integrity footer Integrity appends to
// every blob it writes: a trailing line "\n#crc32c:%08x\n" carrying the
// Castagnoli CRC of the payload bytes. The marker begins with a newline
// so it can never occur inside a single-line JSON payload, which keeps
// footer detection unambiguous; a blob without the marker is a legacy
// blob from before integrity checking and is served as-is.
const footerMarker = "\n#crc32c:"

// castagnoli is the CRC-32C table (the polynomial used by iSCSI, ext4,
// and most storage checksums — hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C (Castagnoli) checksum of b — the same
// polynomial the blob integrity footers use, exported so other
// durability layers (internal/wal's record footers) share one table
// and one on-disk checksum convention.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Quarantiner is the optional Blobs extension for isolating corrupt
// blobs: Quarantine moves the blob stored under key aside (out of the
// visible keyspace, but preserved for inspection) so the corruption is
// observed once, not re-served forever. Disk moves the file into
// <dir>/quarantine/; Mem drops the entry into a shadow map. Wrappers
// (Retry, Fault, Integrity) forward Quarantine to their inner store.
type Quarantiner interface {
	// Quarantine isolates the blob stored under key. Quarantining an
	// absent key is a no-op.
	Quarantine(key string) error
}

// errNotQuarantined is what a forwarding wrapper's Quarantine returns
// when the store beneath it cannot quarantine (a remote blob tier, say):
// nothing moved, which is not a failure but must not be counted as a move.
var errNotQuarantined = errors.New("store: the inner store cannot quarantine")

// Integrity wraps a Blobs with checksummed writes and verified reads:
// Put appends a CRC-32C footer to every blob, Get verifies and strips
// it, and a blob that fails verification is quarantined on the inner
// store (when it implements Quarantiner) and reported as ErrCorrupt —
// so a torn or bit-flipped blob costs one observable miss and is
// recreated by the next Put, instead of being silently re-missed on
// every lookup forever. Blobs without a footer (written before
// integrity checking existed) are served unverified, so enabling
// Integrity over an existing directory is backward compatible.
type Integrity struct {
	inner       Blobs
	quarantined atomic.Int64
}

// WithIntegrity wraps inner with checksummed writes and verified reads.
func WithIntegrity(inner Blobs) *Integrity {
	return &Integrity{inner: inner}
}

// appendFooter returns blob with its integrity footer appended.
func appendFooter(blob []byte) []byte {
	out := make([]byte, 0, len(blob)+len(footerMarker)+9)
	out = append(out, blob...)
	out = append(out, fmt.Sprintf("%s%08x\n", footerMarker, crc32.Checksum(blob, castagnoli))...)
	return out
}

// verifyFooter splits blob into payload and footer and checks the CRC.
// A blob without a footer marker is legacy: returned whole, and never
// an error.
func verifyFooter(blob []byte) (payload []byte, err error) {
	i := bytes.LastIndex(blob, []byte(footerMarker))
	if i < 0 {
		return blob, nil
	}
	rest := blob[i+len(footerMarker):]
	if len(rest) != 9 || rest[8] != '\n' {
		return nil, fmt.Errorf("%w: malformed footer", ErrCorrupt)
	}
	sum, perr := strconv.ParseUint(string(rest[:8]), 16, 32)
	if perr != nil {
		return nil, fmt.Errorf("%w: malformed footer", ErrCorrupt)
	}
	payload = blob[:i]
	if got := crc32.Checksum(payload, castagnoli); uint64(got) != sum {
		return nil, fmt.Errorf("%w: crc32c %08x, footer says %08x", ErrCorrupt, got, sum)
	}
	return payload, nil
}

// Get returns the verified payload stored under key. A blob whose
// footer fails verification is quarantined and reported as
// (nil, false, ErrCorrupt) — or, if the quarantine move fails, as that
// move's error; a legacy blob without a footer is returned unverified.
func (s *Integrity) Get(key string) ([]byte, bool, error) {
	blob, ok, err := s.inner.Get(key)
	if err != nil || !ok {
		return nil, false, err
	}
	payload, err := verifyFooter(blob)
	if err != nil {
		if qerr := s.Quarantine(key); qerr != nil {
			err = qerr
		}
		return nil, false, err
	}
	return payload, true, nil
}

// Put stores blob under key with an integrity footer appended.
func (s *Integrity) Put(key string, blob []byte) error {
	return s.inner.Put(key, appendFooter(blob))
}

// Len returns the inner store's blob count.
func (s *Integrity) Len() (int, error) { return s.inner.Len() }

// Quarantine isolates the blob under key on the inner store (when it
// supports quarantining) and counts the move; a move that fails is
// returned and not counted, and a store beneath that cannot quarantine
// moves nothing, counts nothing and is no error. The root BlobStore calls
// this for corruption the footer cannot see — a blob whose bytes verify
// but whose JSON payload no longer decodes (legacy blobs carry no footer).
func (s *Integrity) Quarantine(key string) error {
	q, ok := s.inner.(Quarantiner)
	if !ok {
		return nil
	}
	switch err := q.Quarantine(key); {
	case errors.Is(err, errNotQuarantined):
		return nil
	case err != nil:
		return fmt.Errorf("store: quarantining %s: %w", key, err)
	}
	s.quarantined.Add(1)
	return nil
}

// Quarantined returns the number of blobs this wrapper quarantined
// since creation (not counting blobs already in quarantine at open —
// see Disk.QuarantineLen for the on-disk total).
func (s *Integrity) Quarantined() int64 { return s.quarantined.Load() }
