package store

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// This file is the HTTP face of the blob store — both halves of it. The
// client half, Remote, is a Blobs whose backend lives in another
// process; the server half, NewBlobHandler, exposes any local Blobs
// over the same three-route wire protocol. A shiftd cluster points the
// two at each other: workers (or the coordinator) serve their raw blob
// tier, peers mount Remote under the usual Integrity/Retry stack, and
// the whole cluster converges on one content-addressed result tier.
//
// The wire carries blobs verbatim — including the CRC-32C integrity
// footers Integrity appends — so a client stack layered as
// Integrity(Retry(Remote)) verifies every blob end-to-end: a payload
// corrupted on the remote disk, in the server process, or on the wire
// itself fails the client-side CRC exactly as a local bit-flip would.

// Remote is a Blobs client over HTTP: Get/Put/Len map to GET/PUT on a
// peer's blob routes (see NewBlobHandler for the wire protocol). Every
// transport or server failure is reported as an error — transient by
// Retry's classification (transientIO), so the usual stack retries
// network hiccups under internal/retry's backoff and a persistent outage
// trips the tiered store's breaker into memory-only operation.
//
// Remote is safe for concurrent use.
type Remote struct {
	base   string // ".../v1/blobs", no trailing slash
	client *http.Client
	errors atomic.Int64
}

// NewRemote returns a blob client for the peer's blob routes rooted at
// baseURL (e.g. "http://worker-1:8080/v1/blobs"). A nil client selects
// a default with a 30-second overall timeout.
func NewRemote(baseURL string, client *http.Client) *Remote {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Remote{base: strings.TrimRight(baseURL, "/"), client: client}
}

// Errors returns the number of failed remote operations (transport
// errors and non-2xx statuses other than 404) since creation.
func (s *Remote) Errors() int64 { return s.errors.Load() }

// fail counts and wraps a remote failure.
func (s *Remote) fail(op, key string, err error) error {
	s.errors.Add(1)
	if key != "" {
		return fmt.Errorf("store: remote %s %q: %w", op, key, err)
	}
	return fmt.Errorf("store: remote %s: %w", op, err)
}

// Get returns the blob stored under key on the remote peer.
func (s *Remote) Get(key string) ([]byte, bool, error) {
	if !validBlobKey(key) {
		// Validate before building a URL: a non-hex key could carry path
		// segments ("../") that the HTTP layer resolves into a different
		// route entirely. Deliberate, not transient — never retried.
		return nil, false, s.fail("get", key, fmt.Errorf("malformed blob key: %w", fs.ErrInvalid))
	}
	req, err := http.NewRequest(http.MethodGet, s.base+"/"+key, nil)
	if err != nil {
		return nil, false, s.fail("get", key, err)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, false, s.fail("get", key, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, false, s.fail("get", key, err)
		}
		return blob, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, s.fail("get", key, fmt.Errorf("status %s", resp.Status))
	}
}

// Put stores blob under key on the remote peer.
func (s *Remote) Put(key string, blob []byte) error {
	if !validBlobKey(key) {
		return s.fail("put", key, fmt.Errorf("malformed blob key: %w", fs.ErrInvalid))
	}
	req, err := http.NewRequest(http.MethodPut, s.base+"/"+key, strings.NewReader(string(blob)))
	if err != nil {
		return s.fail("put", key, err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.client.Do(req)
	if err != nil {
		return s.fail("put", key, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return s.fail("put", key, fmt.Errorf("status %s", resp.Status))
	}
	return nil
}

// blobCount is the wire form of the blob-count route.
type blobCount struct {
	Len int `json:"len"`
}

// Len returns the remote peer's blob count.
func (s *Remote) Len() (int, error) {
	req, err := http.NewRequest(http.MethodGet, s.base, nil)
	if err != nil {
		return 0, s.fail("len", "", err)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, s.fail("len", "", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, s.fail("len", "", fmt.Errorf("status %s", resp.Status))
	}
	var c blobCount
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		return 0, s.fail("len", "", err)
	}
	return c.Len, nil
}

// validBlobKey reports whether key is shaped like a content address —
// hex of reasonable length — so a crafted key can never traverse the
// serving store's directory layout. Disk.path revalidates, but the
// handler rejects garbage before it reaches any backend.
func validBlobKey(key string) bool {
	if len(key) < 4 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return false
		}
	}
	return true
}

// NewBlobHandler serves inner over the blob wire protocol, rooted at
// the mount point (mount with http.StripPrefix):
//
//	GET  /{key}  the raw stored bytes (200), or 404 when absent
//	PUT  /{key}  store the request body under key (204)
//	GET  /       {"len": n} — the blob count
//
// Bytes are served and stored verbatim: the handler sits below any
// Integrity layer, so blobs keep their CRC footers on the wire and
// remote clients verify them end-to-end. Keys must look like content
// addresses (hex); anything else is a 400.
func NewBlobHandler(inner Blobs) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !validBlobKey(key) {
			http.Error(w, "malformed blob key", http.StatusBadRequest)
			return
		}
		blob, ok, err := inner.Get(key)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if !ok {
			http.Error(w, "blob not found", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(blob)
	})
	mux.HandleFunc("PUT /{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !validBlobKey(key) {
			http.Error(w, "malformed blob key", http.StatusBadRequest)
			return
		}
		blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		if err := inner.Put(key, blob); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The count route: the bare mount point, whether the stripping
		// wrapper left "/" or "".
		if r.URL.Path == "" || r.URL.Path == "/" {
			if r.Method != http.MethodGet {
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			n, err := inner.Len()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(blobCount{Len: n})
			return
		}
		mux.ServeHTTP(w, r)
	})
}
