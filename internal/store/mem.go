package store

import "sync"

// Mem is the reference in-memory Blobs implementation: a mutex-guarded
// map. It is safe for concurrent use; a nil *Mem is not valid (use
// NewMem).
type Mem struct {
	mu   sync.RWMutex
	m    map[string][]byte
	quar map[string][]byte
}

// NewMem returns an empty in-memory blob store.
func NewMem() *Mem {
	return &Mem{m: make(map[string][]byte)}
}

// Get returns a copy of the blob stored under key.
func (s *Mem) Get(key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.m[key]
	if !ok {
		return nil, false, nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, true, nil
}

// Put stores a copy of blob under key.
func (s *Mem) Put(key string, blob []byte) error {
	b := make([]byte, len(blob))
	copy(b, blob)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = b
	return nil
}

// Len returns the number of stored blobs.
func (s *Mem) Len() (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m), nil
}

// Quarantine moves the blob under key into a shadow map, mirroring
// Disk.Quarantine for the in-memory store chaos tests drive: the key
// reads as a miss afterwards and the next Put recreates it.
func (s *Mem) Quarantine(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[key]
	if !ok {
		return nil
	}
	if s.quar == nil {
		s.quar = make(map[string][]byte)
	}
	s.quar[key] = b
	delete(s.m, key)
	return nil
}
