package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, recs []Record) []Record {
	t.Helper()
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf)
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}
	for _, r := range recs {
		if err := enc.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	dec, err := NewDecoder(&buf)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	var got []Record
	for {
		r, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, r)
	}
	return got
}

func TestCodecRoundTripBasic(t *testing.T) {
	recs := []Record{
		{Block: 100, Instrs: 16, Kind: KindSeq},
		{Block: 101, Instrs: 3, Kind: KindCall},
		{Block: 50, Instrs: 9, Kind: KindReturn},
		{Block: MaxBlockAddr, Instrs: 65535, Kind: KindTrap},
		{Block: 0, Instrs: 1, Kind: KindBranch},
	}
	got := roundTrip(t, recs)
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(blocks []uint32, seed int64) bool {
		rng := NewRNG(seed)
		recs := make([]Record, len(blocks))
		for i, b := range blocks {
			recs[i] = Record{
				Block:  BlockAddr(b),
				Instrs: uint16(1 + rng.Intn(64)),
				Kind:   Kind(rng.Intn(int(kindCount))),
			}
		}
		var buf bytes.Buffer
		enc, err := NewEncoder(&buf)
		if err != nil {
			return false
		}
		for _, r := range recs {
			if err := enc.Write(r); err != nil {
				return false
			}
		}
		if err := enc.Flush(); err != nil {
			return false
		}
		dec, err := NewDecoder(&buf)
		if err != nil {
			return false
		}
		for i := range recs {
			got, err := dec.Next()
			if err != nil || got != recs[i] {
				return false
			}
		}
		_, err = dec.Next()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCodecCompression(t *testing.T) {
	// Mostly-sequential traces should compress well below 10 bytes/record.
	const n = 10000
	recs := make([]Record, n)
	blk := BlockAddr(1 << 20)
	rng := NewRNG(1)
	for i := range recs {
		recs[i] = Record{Block: blk, Instrs: 16, Kind: KindSeq}
		if rng.Bool(0.2) {
			blk = BlockAddr(1<<20 + rng.Intn(4096))
		} else {
			blk++
		}
	}
	var buf bytes.Buffer
	enc, _ := NewEncoder(&buf)
	for _, r := range recs {
		if err := enc.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	enc.Flush()
	perRec := float64(buf.Len()) / n
	if perRec > 5 {
		t.Errorf("codec too fat: %.2f bytes/record", perRec)
	}
}

func TestDecoderBadMagic(t *testing.T) {
	_, err := NewDecoder(bytes.NewReader([]byte("NOPE\x01")))
	if !errors.Is(err, errBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecoderBadVersion(t *testing.T) {
	_, err := NewDecoder(bytes.NewReader([]byte("SHFT\x7f")))
	if !errors.Is(err, errBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestDecoderTruncated(t *testing.T) {
	var buf bytes.Buffer
	enc, _ := NewEncoder(&buf)
	enc.Write(Record{Block: 12345, Instrs: 7, Kind: KindCall})
	enc.Flush()
	full := buf.Bytes()
	// Chop mid-record (header is 5 bytes; the record needs >=3).
	trunc := full[:len(full)-1]
	dec, err := NewDecoder(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Next(); err == nil || err == io.EOF {
		t.Errorf("truncated record: err = %v, want unexpected EOF", err)
	}
}

func TestDecoderShortHeader(t *testing.T) {
	if _, err := NewDecoder(bytes.NewReader([]byte("SH"))); err == nil {
		t.Error("short header accepted")
	}
	if _, err := NewDecoder(bytes.NewReader([]byte("SHFT"))); err == nil {
		t.Error("missing version accepted")
	}
}

func TestEncoderRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	enc, _ := NewEncoder(&buf)
	if err := enc.Write(Record{Block: 1, Instrs: 0, Kind: KindSeq}); err == nil {
		t.Error("invalid record accepted")
	}
}

func TestZigzagExtremes(t *testing.T) {
	for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
		if unzigzag(zigzag(v)) != v {
			t.Errorf("zigzag round-trip failed for %d", v)
		}
	}
}
