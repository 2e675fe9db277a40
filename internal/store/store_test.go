package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// testBackends returns each Blobs implementation under a fresh state.
func testBackends(t *testing.T) map[string]Blobs {
	t.Helper()
	disk, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Blobs{"mem": NewMem(), "disk": disk}
}

// TestBlobsConformance runs the Blobs contract over every backend:
// misses before Put, byte-exact round trips, atomic replacement, and
// Len counting distinct keys.
func TestBlobsConformance(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			if _, ok, err := s.Get("deadbeef"); err != nil || ok {
				t.Fatalf("Get on empty store = (ok=%v, err=%v), want miss", ok, err)
			}
			blob := []byte(`{"x":1}`)
			if err := s.Put("deadbeef", blob); err != nil {
				t.Fatal(err)
			}
			got, ok, err := s.Get("deadbeef")
			if err != nil || !ok || !bytes.Equal(got, blob) {
				t.Fatalf("Get = (%q, ok=%v, err=%v), want stored blob", got, ok, err)
			}
			// Replacement is total: the new blob fully supersedes the old.
			if err := s.Put("deadbeef", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if got, _, _ := s.Get("deadbeef"); string(got) != "v2" {
				t.Errorf("after replace Get = %q, want v2", got)
			}
			if err := s.Put("cafe", []byte("v3")); err != nil {
				t.Fatal(err)
			}
			if n, err := s.Len(); err != nil || n != 2 {
				t.Errorf("Len = (%d, %v), want 2", n, err)
			}
		})
	}
}

// TestBlobsCallerOwnsSlices checks that mutating a slice passed to Put
// or returned from Get never corrupts the stored blob.
func TestBlobsCallerOwnsSlices(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			in := []byte("original")
			if err := s.Put("aa11", in); err != nil {
				t.Fatal(err)
			}
			copy(in, "clobber!")
			out, _, _ := s.Get("aa11")
			if string(out) != "original" {
				t.Fatalf("stored blob aliased Put argument: %q", out)
			}
			copy(out, "clobber!")
			again, _, _ := s.Get("aa11")
			if string(again) != "original" {
				t.Fatalf("stored blob aliased Get result: %q", again)
			}
		})
	}
}

// TestBlobsConcurrent hammers each backend from many goroutines; run
// under -race this is the concurrency-safety gate.
func TestBlobsConcurrent(t *testing.T) {
	for name, s := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						key := fmt.Sprintf("k%d", i%5)
						blob := []byte(fmt.Sprintf("g%d-i%d", g, i))
						if err := s.Put(key, blob); err != nil {
							t.Error(err)
							return
						}
						if got, ok, err := s.Get(key); err != nil || (ok && len(got) == 0) {
							t.Errorf("Get(%s) = (%q, %v, %v)", key, got, ok, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if n, err := s.Len(); err != nil || n != 5 {
				t.Errorf("Len = (%d, %v), want 5", n, err)
			}
		})
	}
}

// TestDiskCrashConsistency is the crash-safety gate: a partial write —
// the temp file a crashed process would leave behind — must never
// become visible as a blob, and must not count toward Len.
func TestDiskCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("deadbeef", []byte("complete")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-Put: a tmp- file sitting in the shard
	// directory with partial content for the same and for a new key.
	shard := filepath.Join(dir, "de")
	for _, name := range []string{tmpPrefix + "1234", tmpPrefix + "5678"} {
		if err := os.WriteFile(filepath.Join(shard, name), []byte(`{"x":`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, ok, err := s.Get("deadbeef")
	if err != nil || !ok || string(got) != "complete" {
		t.Fatalf("Get after simulated crash = (%q, %v, %v), want the complete blob", got, ok, err)
	}
	if _, ok, _ := s.Get("de5678"); ok {
		t.Error("partial write visible as a blob")
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Errorf("Len = (%d, %v), want 1 (tmp files ignored)", n, err)
	}
	// Reopening the directory (a fresh process) sees the same state.
	s2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := s2.Get("deadbeef"); !ok || string(got) != "complete" {
		t.Errorf("reopened store lost the blob: (%q, %v)", got, ok)
	}
}

// TestDiskBlobMode checks that published blobs are world-readable:
// CreateTemp's private 0600 would silently break directory sharing
// across users (every Get by the second user degrades to a miss).
func TestDiskBlobMode(t *testing.T) {
	s, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("deadbeef", []byte("x")); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(s.dir, "de", "deadbeef"+blobExt))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("blob mode = %v, want 0644", fi.Mode().Perm())
	}
}

// TestDiskLenSemantics checks the cached count: seeded at open,
// incremented only by fresh keys, and re-seeded on reopen.
func TestDiskLenSemantics(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"aa11", "bb22", "aa11"} { // aa11 twice: a replace, not a new cell
		if err := s.Put(key, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := s.Len(); n != 2 {
		t.Errorf("Len = %d, want 2 (replacement must not double-count)", n)
	}
	reopened, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := reopened.Len(); n != 2 {
		t.Errorf("reopened Len = %d, want 2", n)
	}
}

// TestDiskKeyValidation checks that malformed keys are rejected rather
// than mapped to paths outside the store directory.
func TestDiskKeyValidation(t *testing.T) {
	s, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../escape", "a/b", "a\\b", "..", "key.json", "k\x00v"} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted a malformed key", key)
		}
		if _, _, err := s.Get(key); err == nil {
			t.Errorf("Get(%q) accepted a malformed key", key)
		}
	}
	// Short-but-valid keys land in the fallback shard.
	if err := s.Put("a", []byte("x")); err != nil {
		t.Errorf("Put(short key) = %v", err)
	}
	if got, ok, _ := s.Get("a"); !ok || string(got) != "x" {
		t.Errorf("short key round trip = (%q, %v)", got, ok)
	}
}

// TestDiskSharedDirectory simulates two processes sharing one cache
// directory via two independent Disk handles.
func TestDiskSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put("deadbeef", []byte("from-a")); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := b.Get("deadbeef"); !ok || string(got) != "from-a" {
		t.Fatalf("second handle missed the first handle's blob: (%q, %v)", got, ok)
	}
}
