// Package wal is an append-only write-ahead log of opaque records,
// the durability substrate behind shiftd's restartable jobs and
// persistent cluster membership.
//
// The on-disk format is a flat sequence of framed records:
//
//	[4-byte big-endian payload length][payload][4-byte big-endian CRC-32C]
//
// The CRC-32C footer covers the payload bytes and uses the same
// Castagnoli table as the result store's blob integrity footers
// (store.Checksum), so the whole tree shares one checksum convention.
// Payloads are opaque to this package; callers journal JSON.
//
// Torn-tail contract: a crash mid-append leaves a final record whose
// frame is incomplete (missing length bytes, short payload, or a
// mismatching footer with nothing after it). Open detects that tail,
// discards it, truncates the file back to the last intact record, and
// reports how much it dropped — losing at most the single record that
// was being written when the process died. A record that fails its CRC
// with further data behind it can never be a torn append (appends are
// sequential), so it is interior corruption — bit rot or an outside
// writer — and Open fails loudly with errCorrupt rather than silently
// dropping journaled state.
//
// Rotation/compaction: Rewrite atomically replaces the log's contents
// with a compacted snapshot (temp file + fsync + rename), so callers
// whose live state is a small fraction of the accumulated log can fold
// it down without a durability gap — a crash during Rewrite leaves the
// old log intact.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"shift/internal/store"
)

// errCorrupt marks a log whose interior failed verification: a record
// that is not the torn tail of a crashed append has a mismatching
// CRC-32C footer or an impossible frame. Replaying past it could
// silently drop journaled state, so Open refuses to open the log;
// the operator keeps the evidence and decides.
var errCorrupt = errors.New("wal: corrupt record")

// maxRecord bounds a single record's payload (16 MiB). Appends beyond
// it are refused, so a length prefix above it on disk can only be
// corruption — a torn append never fabricates a large length, because
// the 4 length bytes are written before any payload byte.
const maxRecord = 16 << 20

// frameOverhead is the framing cost per record: the 4-byte length
// prefix plus the 4-byte CRC-32C footer.
const frameOverhead = 8

// Tail describes the torn tail Open discarded, if any.
type Tail struct {
	// Records is the number of trailing records dropped (0 or 1: a
	// sequential append can tear at most the record being written).
	Records int
	// Bytes is the number of trailing bytes truncated away.
	Bytes int64
}

// Log is an append-only record log backed by one file. All methods are
// safe for concurrent use; appends are serialized and synced to disk
// before returning, so an acknowledged record survives process death.
type Log struct {
	mu          sync.Mutex
	f           *os.File
	path        string
	size        int64
	records     int
	nosync      bool
	tail        Tail
	compactions int64
}

// Open opens (creating if absent) the log at path, replays every
// intact record into recs, truncates away a torn tail (reported in
// tail), and positions the log for appending. Interior corruption
// fails with an error wrapping errCorrupt and the byte offset of the
// offending record; nothing is modified in that case.
func Open(path string) (l *Log, recs [][]byte, tail Tail, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, Tail{}, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, Tail{}, err
	}
	recs, good, err := scan(data)
	if err != nil {
		f.Close()
		return nil, nil, Tail{}, fmt.Errorf("%s: %w", path, err)
	}
	if good < int64(len(data)) {
		tail.Bytes = int64(len(data)) - good
		tail.Records = 1
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, Tail{}, err
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, Tail{}, err
	}
	return &Log{f: f, path: path, size: good, records: len(recs), tail: tail}, recs, tail, nil
}

// scan parses data into records, returning the byte offset of the end
// of the last intact record. A frame that runs past the end of data is
// the torn tail (good < len(data)); a complete frame that fails its
// CRC with data behind it — or an impossible length prefix — is
// interior corruption.
func scan(data []byte) (recs [][]byte, good int64, err error) {
	off := 0
	for off < len(data) {
		if len(data)-off < 4 {
			return recs, int64(off), nil // torn length prefix
		}
		n := int(binary.BigEndian.Uint32(data[off:]))
		if n == 0 || n > maxRecord {
			return nil, 0, fmt.Errorf("%w: impossible record length %d at offset %d", errCorrupt, n, off)
		}
		if len(data)-off < n+frameOverhead {
			return recs, int64(off), nil // torn payload or footer
		}
		payload := data[off+4 : off+4+n]
		sum := binary.BigEndian.Uint32(data[off+4+n:])
		if store.Checksum(payload) != sum {
			if off+n+frameOverhead == len(data) {
				return recs, int64(off), nil // damaged final record: tail
			}
			return nil, 0, fmt.Errorf("%w: crc mismatch at offset %d", errCorrupt, off)
		}
		recs = append(recs, append([]byte(nil), payload...))
		off += n + frameOverhead
	}
	return recs, int64(off), nil
}

// frame returns rec framed for the log: length prefix, payload,
// CRC-32C footer.
func frame(rec []byte) []byte {
	buf := make([]byte, len(rec)+frameOverhead)
	binary.BigEndian.PutUint32(buf, uint32(len(rec)))
	copy(buf[4:], rec)
	binary.BigEndian.PutUint32(buf[4+len(rec):], store.Checksum(rec))
	return buf
}

// Append durably appends one record: the framed bytes are written and
// fsynced before Append returns, so an acknowledged record survives a
// crash (a torn write of the record itself is discarded as the tail on
// the next Open). Empty or oversized records are refused.
func (l *Log) Append(rec []byte) error {
	if len(rec) == 0 {
		return errors.New("wal: empty record")
	}
	if len(rec) > maxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte bound", len(rec), maxRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: log closed")
	}
	if _, err := l.f.Write(frame(rec)); err != nil {
		return err
	}
	if !l.nosync {
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	l.size += int64(len(rec) + frameOverhead)
	l.records++
	return nil
}

// Rewrite atomically replaces the log's contents with recs — the
// rotation/compaction primitive. The snapshot is written to a temp
// file in the same directory, fsynced, and renamed over the log, so a
// crash at any point leaves either the old log or the new one intact,
// never a mix. Appends block for the duration and land in the new
// file afterwards.
func (l *Log) Rewrite(recs [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: log closed")
	}
	dir, base := filepath.Split(l.path)
	tmp, err := os.CreateTemp(dir, base+".rewrite-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	var size int64
	for _, rec := range recs {
		if len(rec) == 0 || len(rec) > maxRecord {
			tmp.Close()
			return fmt.Errorf("wal: rewrite record of %d bytes out of bounds", len(rec))
		}
		if _, err := tmp.Write(frame(rec)); err != nil {
			tmp.Close()
			return err
		}
		size += int64(len(rec) + frameOverhead)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), l.path); err != nil {
		return err
	}
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f.Close()
	l.f = f
	l.size = size
	l.records = len(recs)
	l.compactions++
	return nil
}

// SetNoSync disables the per-append fsync — for tests and fuzzing
// only, where throughput matters and durability does not.
func (l *Log) SetNoSync(on bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nosync = on
}

// Size returns the log's current size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Records returns the number of records currently in the log
// (replayed at Open plus appended since, minus rewrites).
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// TailDiscarded reports the torn tail Open truncated away, if any.
func (l *Log) TailDiscarded() Tail {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail
}

// Compactions returns the number of Rewrite calls that completed.
func (l *Log) Compactions() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compactions
}

// Close syncs and closes the log file. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
