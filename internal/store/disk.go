package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// Disk is a Blobs backed by a content-addressed directory: one file per
// key at <dir>/<key[:2]>/<key>.json (two-character fan-out keeps shard
// directories small under hundreds of thousands of cells). It is safe
// for concurrent use within a process and across processes sharing the
// directory: a blob is written to a temporary file in the shard
// directory and published with os.Rename, which is atomic on POSIX
// filesystems, so readers observe either the previous complete blob or
// the new complete blob — never a torn write. A crash mid-write leaves
// only a tmp-* file, which every reader and Len ignore.
type Disk struct {
	dir string

	// count caches the blob count so Len is O(1) instead of a directory
	// walk (shiftd polls it on every /v1/stats): seeded by one walk at
	// open, then maintained across Puts. putMu serializes the
	// exists-check/rename/count update so two in-process writers of one
	// new key cannot double-count. Another process's writes are not
	// observed until reopen — Len is a this-handle view.
	putMu sync.Mutex
	count int

	// quarCount counts blobs under <dir>/quarantine: those already
	// there at open plus this handle's Quarantine calls.
	quarCount atomic.Int64
}

// tmpPrefix marks in-progress writes; such files are never visible
// through Get or Len and are safe to delete at any time.
const tmpPrefix = "tmp-"

// blobExt is the stored-file extension. The store is blob-agnostic, but
// in practice blobs are JSON (see the root package's BlobStore), and the
// extension keeps the directory greppable and editor-friendly.
const blobExt = ".json"

// quarantineDir is the subdirectory corrupt blobs are moved into by
// Quarantine. Its contents are invisible to Get and Len — a quarantined
// key reads as a miss and is recreated by the next Put — but preserved
// byte-for-byte for inspection. Operators delete the directory once
// the corruption is understood.
const quarantineDir = "quarantine"

// OpenDisk opens (creating if necessary) a disk blob store rooted at
// dir, counting the blobs already present.
func OpenDisk(dir string) (*Disk, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Disk{dir: dir}
	n, err := s.walkCount()
	if err != nil {
		return nil, err
	}
	s.count = n
	s.quarCount.Store(s.quarantineWalk())
	return s, nil
}

// Dir returns the store's root directory.
func (s *Disk) Dir() string { return s.dir }

// path maps a key to its blob file, validating the key so a malformed
// one can never escape the store directory.
func (s *Disk) path(key string) (string, error) {
	if key == "" {
		return "", errors.New("store: empty key")
	}
	for _, r := range key {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		default:
			return "", fmt.Errorf("store: invalid key %q", key)
		}
	}
	shard := "_"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.dir, shard, key+blobExt), nil
}

// Get returns the blob stored under key.
func (s *Disk) Get(key string) ([]byte, bool, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, false, err
	}
	b, err := os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	return b, true, nil
}

// Put atomically stores blob under key: the bytes are written to a
// temporary file in the destination shard directory (same filesystem,
// so the final rename cannot degrade to a copy), made world-readable
// (CreateTemp's 0600 would break directory sharing across users), and
// renamed into place.
func (s *Disk) Put(key string, blob []byte) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	shard := filepath.Dir(p)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	f, err := os.CreateTemp(shard, tmpPrefix)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(blob); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	s.putMu.Lock()
	defer s.putMu.Unlock()
	_, statErr := os.Stat(p)
	fresh := errors.Is(statErr, fs.ErrNotExist)
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if fresh {
		s.count++
	}
	return nil
}

// Len returns the number of published blobs as seen by this handle:
// the count at open plus this handle's fresh Puts (in-progress tmp-*
// files never count; another process's concurrent writes appear after
// reopen).
func (s *Disk) Len() (int, error) {
	s.putMu.Lock()
	defer s.putMu.Unlock()
	return s.count, nil
}

// walkCount counts published blobs on disk (skipping in-progress
// tmp-* files and the quarantine directory); one walk at open seeds the
// cached count.
func (s *Disk) walkCount() (int, error) {
	n := 0
	err := filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == quarantineDir {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), blobExt) && !strings.HasPrefix(d.Name(), tmpPrefix) {
			n++
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	return n, nil
}

// quarantineWalk counts blobs already in quarantine (best effort: a
// missing directory is simply zero).
func (s *Disk) quarantineWalk() int64 {
	entries, err := os.ReadDir(filepath.Join(s.dir, quarantineDir))
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), blobExt) {
			n++
		}
	}
	return n
}

// Quarantine moves the blob stored under key into <dir>/quarantine,
// removing it from the visible keyspace while preserving its bytes for
// inspection. The next Put of the same key recreates the blob (self-
// heal). Quarantining an absent key is a no-op.
func (s *Disk) Quarantine(key string) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.putMu.Lock()
	defer s.putMu.Unlock()
	err = os.Rename(p, filepath.Join(qdir, key+blobExt))
	if errors.Is(err, fs.ErrNotExist) {
		return nil // already gone: a concurrent quarantine or delete won
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.count--
	s.quarCount.Add(1)
	return nil
}

// QuarantineLen returns the number of quarantined blobs as seen by this
// handle: those under <dir>/quarantine at open plus this handle's
// Quarantine calls.
func (s *Disk) QuarantineLen() int64 { return s.quarCount.Load() }
