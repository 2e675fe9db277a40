package store

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newBlobServer serves a fresh Mem over the blob wire protocol and
// returns a Remote client pointed at it plus the backing Mem.
func newBlobServer(t *testing.T) (*Remote, *Mem) {
	t.Helper()
	mem := NewMem()
	srv := httptest.NewServer(NewBlobHandler(mem))
	t.Cleanup(srv.Close)
	return NewRemote(srv.URL, nil), mem
}

func TestRemoteRoundTrip(t *testing.T) {
	remote, _ := newBlobServer(t)
	key := "deadbeef01"
	blob := []byte(`{"ipc":1.25}` + "\n#crc32c:00000000\n") // footers travel verbatim

	if _, ok, err := remote.Get(key); err != nil || ok {
		t.Fatalf("Get before Put: ok=%v err=%v, want miss", ok, err)
	}
	if err := remote.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	got, ok, err := remote.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("blob changed over the wire:\n sent %q\n got  %q", blob, got)
	}
	if n, err := remote.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1", n, err)
	}
	if remote.Errors() != 0 {
		t.Fatalf("healthy roundtrip counted %d errors", remote.Errors())
	}
}

func TestRemoteRejectsMalformedKeys(t *testing.T) {
	remote, mem := newBlobServer(t)
	for _, key := range []string{"..", "a/b", "xyz", "AB", strings.Repeat("f", 129)} {
		if err := remote.Put(key, []byte("x")); err == nil {
			t.Fatalf("Put(%q) accepted a malformed key", key)
		}
	}
	if n, _ := mem.Len(); n != 0 {
		t.Fatalf("malformed keys reached the backing store: %d blobs", n)
	}
}

func TestRemoteCountsErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	remote := NewRemote(srv.URL, nil)
	if _, _, err := remote.Get("deadbeef"); err == nil {
		t.Fatal("Get against a broken peer succeeded")
	}
	if err := remote.Put("deadbeef", []byte("x")); err == nil {
		t.Fatal("Put against a broken peer succeeded")
	}
	if remote.Errors() != 2 {
		t.Fatalf("Errors() = %d, want 2", remote.Errors())
	}
}

// TestRemoteEndToEndCRC pins the trust boundary of the remote tier:
// the client stack Integrity(Retry(Remote)) verifies CRC footers on
// the client side, so bytes corrupted anywhere past it — in the server
// process, on its disk, or on the wire — surface as ErrCorrupt, never
// as silently wrong results.
func TestRemoteEndToEndCRC(t *testing.T) {
	remote, mem := newBlobServer(t)
	stack := WithIntegrity(WithRetry(remote, nil))
	key := "c0ffee4242"
	payload := []byte(`{"ipc":2.5}`)

	if err := stack.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	// The server stores the footered form; the client strips and
	// verifies on read.
	raw, ok, _ := mem.Get(key)
	if !ok || !bytes.Contains(raw, []byte(footerMarker)) {
		t.Fatalf("server-side blob missing CRC footer: %q", raw)
	}
	got, ok, err := stack.Get(key)
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("verified read: %q ok=%v err=%v", got, ok, err)
	}

	// Flip a payload byte server-side: the client CRC must catch it.
	raw[0] ^= 0x40
	if err := mem.Put(key, raw); err != nil {
		t.Fatal(err)
	}
	if _, _, err := stack.Get(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted remote blob read: %v, want ErrCorrupt", err)
	}
}
