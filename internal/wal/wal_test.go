package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, path string) (*Log, [][]byte, Tail) {
	t.Helper()
	l, recs, tail, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	l.SetNoSync(true)
	t.Cleanup(func() { l.Close() })
	return l, recs, tail
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	l, recs, tail := openT(t, path)
	if len(recs) != 0 || tail.Records != 0 {
		t.Fatalf("fresh log: recs=%d tail=%+v", len(recs), tail)
	}
	want := [][]byte{[]byte(`{"op":"a"}`), []byte(`{"op":"b","n":2}`), {0x00, 0xff, 0x10}}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if l.Records() != 3 {
		t.Fatalf("Records = %d, want 3", l.Records())
	}
	l.Close()

	_, got, tail := openT(t, path)
	if tail.Records != 0 {
		t.Fatalf("clean log reported a torn tail: %+v", tail)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// write builds a valid log file of the given payloads directly.
func write(t *testing.T, path string, recs ...[]byte) {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		buf.Write(frame(r))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestWALTornTailDiscarded(t *testing.T) {
	full := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	var clean bytes.Buffer
	for _, r := range full {
		clean.Write(frame(r))
	}
	lastLen := len(frame(full[2]))
	// Every possible truncation inside the final record — mid length
	// prefix, mid payload, mid footer — must recover the first two
	// records and discard the tail.
	for cut := 1; cut < lastLen; cut++ {
		path := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(path, clean.Bytes()[:clean.Len()-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, tail := openT(t, path)
		if len(recs) != 2 || !bytes.Equal(recs[0], full[0]) || !bytes.Equal(recs[1], full[1]) {
			t.Fatalf("cut %d: recovered %d records", cut, len(recs))
		}
		if tail.Records != 1 || tail.Bytes != int64(lastLen-cut) {
			t.Fatalf("cut %d: tail = %+v, want {1 %d}", cut, tail, lastLen-cut)
		}
		// The truncation is physical: appending after recovery yields a
		// clean log.
		if err := l.Append([]byte("delta")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		_, recs2, tail2 := openT(t, path)
		if len(recs2) != 3 || tail2.Records != 0 {
			t.Fatalf("cut %d: after append recs=%d tail=%+v", cut, len(recs2), tail2)
		}
	}
}

func TestWALDamagedFinalRecordIsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	write(t, path, []byte("alpha"), []byte("beta"))
	// Flip a payload byte of the final record: a complete frame whose
	// CRC fails with nothing behind it is indistinguishable from a torn
	// append and is discarded as the tail.
	data, _ := os.ReadFile(path)
	data[len(data)-6] ^= 0x40
	os.WriteFile(path, data, 0o644)
	_, recs, tail := openT(t, path)
	if len(recs) != 1 || !bytes.Equal(recs[0], []byte("alpha")) {
		t.Fatalf("recovered %d records", len(recs))
	}
	if tail.Records != 1 {
		t.Fatalf("tail = %+v", tail)
	}
}

func TestWALInteriorCorruptionFailsLoudly(t *testing.T) {
	t.Run("crc", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j.wal")
		write(t, path, []byte("alpha"), []byte("beta"), []byte("gamma"))
		data, _ := os.ReadFile(path)
		data[5] ^= 0x01 // first byte of record 0's payload
		os.WriteFile(path, data, 0o644)
		_, _, _, err := Open(path)
		if !errors.Is(err, errCorrupt) {
			t.Fatalf("Open = %v, want ErrCorrupt", err)
		}
		// Nothing was modified: the evidence is preserved.
		after, _ := os.ReadFile(path)
		if !bytes.Equal(after, data) {
			t.Fatal("Open modified a corrupt log")
		}
	})
	t.Run("length", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j.wal")
		write(t, path, []byte("alpha"), []byte("beta"))
		data, _ := os.ReadFile(path)
		binary.BigEndian.PutUint32(data, uint32(maxRecord+1))
		os.WriteFile(path, data, 0o644)
		if _, _, _, err := Open(path); !errors.Is(err, errCorrupt) {
			t.Fatalf("Open = %v, want ErrCorrupt", err)
		}
	})
	t.Run("zero-length", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j.wal")
		write(t, path, []byte("alpha"))
		data, _ := os.ReadFile(path)
		binary.BigEndian.PutUint32(data, 0)
		os.WriteFile(path, data, 0o644)
		if _, _, _, err := Open(path); !errors.Is(err, errCorrupt) {
			t.Fatalf("Open = %v, want ErrCorrupt", err)
		}
	})
}

func TestWALRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	l, _, _ := openT(t, path)
	for i := 0; i < 100; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Size()
	snap := [][]byte{[]byte("live-1"), []byte("live-2")}
	if err := l.Rewrite(snap); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if l.Records() != 2 || l.Size() >= before || l.Compactions() != 1 {
		t.Fatalf("after rewrite: records=%d size=%d (before %d) compactions=%d",
			l.Records(), l.Size(), before, l.Compactions())
	}
	// Appends land in the new file.
	if err := l.Append([]byte("live-3")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, recs, tail := openT(t, path)
	if tail.Records != 0 || len(recs) != 3 {
		t.Fatalf("reopen after rewrite: recs=%d tail=%+v", len(recs), tail)
	}
	if !bytes.Equal(recs[0], snap[0]) || !bytes.Equal(recs[2], []byte("live-3")) {
		t.Fatalf("rewrite contents wrong: %q", recs)
	}
	// No leftover temp files.
	matches, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.rewrite-*"))
	if len(matches) != 0 {
		t.Fatalf("leftover rewrite temp files: %v", matches)
	}
}

func TestWALAppendBounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	l, _, _ := openT(t, path)
	if err := l.Append(nil); err == nil {
		t.Fatal("empty append accepted")
	}
	if err := l.Append(make([]byte, maxRecord+1)); err == nil {
		t.Fatal("oversized append accepted")
	}
	l.Close()
	if err := l.Append([]byte("x")); err == nil {
		t.Fatal("append after close accepted")
	}
}

// TestWALScanPrefixProperty is the recovery invariant as a plain test:
// for any truncation point of a valid log, scan yields a prefix of the
// written records and never an error.
func TestWALScanPrefixProperty(t *testing.T) {
	want := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc"), []byte("dddd")}
	var buf bytes.Buffer
	for _, r := range want {
		buf.Write(frame(r))
	}
	data := buf.Bytes()
	for cut := 0; cut <= len(data); cut++ {
		recs, good, err := scan(data[:cut])
		if err != nil {
			t.Fatalf("cut %d: scan error %v", cut, err)
		}
		if good > int64(cut) {
			t.Fatalf("cut %d: good offset %d past end", cut, good)
		}
		for i, r := range recs {
			if !bytes.Equal(r, want[i]) {
				t.Fatalf("cut %d: record %d = %q, want %q", cut, i, r, want[i])
			}
		}
	}
}
