package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace codec.
//
// Layout: a fixed header ("SHFT", version, record count placeholder of
// 0xFFFFFFFFFFFFFFFF when streaming), followed by one varint-encoded record
// per block visit. Block addresses are delta-encoded (zigzag) against the
// previous record's block address, because instruction fetch is dominated by
// short forward jumps; this typically compresses traces ~4x versus fixed
// 10-byte records.

const (
	codecMagic   = "SHFT"
	codecVersion = 1
)

var (
	// errBadMagic indicates the stream does not begin with a trace header.
	errBadMagic = errors.New("trace: bad magic (not a SHIFT trace)")
	// errBadVersion indicates an unsupported codec version.
	errBadVersion = errors.New("trace: unsupported trace version")
)

// zigzag encodes a signed delta as an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag reverses zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Encoder writes records in the binary trace format.
type Encoder struct {
	w    *bufio.Writer
	prev BlockAddr
	buf  [3 * binary.MaxVarintLen64]byte
}

// NewEncoder writes a trace header to w and returns an Encoder.
func NewEncoder(w io.Writer) (*Encoder, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(codecMagic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(codecVersion); err != nil {
		return nil, err
	}
	return &Encoder{w: bw}, nil
}

// Write appends one record.
func (e *Encoder) Write(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	n := binary.PutUvarint(e.buf[:], zigzag(int64(r.Block)-int64(e.prev)))
	n += binary.PutUvarint(e.buf[n:], uint64(r.Instrs))
	e.buf[n] = byte(r.Kind)
	n++
	if _, err := e.w.Write(e.buf[:n]); err != nil {
		return err
	}
	e.prev = r.Block
	return nil
}

// Flush flushes buffered output. It must be called before the underlying
// writer is closed.
func (e *Encoder) Flush() error { return e.w.Flush() }

// Decoder reads records in the binary trace format.
type Decoder struct {
	r    *bufio.Reader
	prev BlockAddr
}

// NewDecoder validates the trace header and returns a Decoder.
func NewDecoder(r io.Reader) (*Decoder, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(magic[:]) != codecMagic {
		return nil, errBadMagic
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", err)
	}
	if ver != codecVersion {
		return nil, fmt.Errorf("%w: %d", errBadVersion, ver)
	}
	return &Decoder{r: br}, nil
}

// Next implements Reader. It returns io.EOF cleanly at end of stream and
// io.ErrUnexpectedEOF for a truncated record.
func (d *Decoder) Next() (Record, error) {
	delta, err := binary.ReadUvarint(d.r)
	if err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: decoding block delta: %w", err)
	}
	instrs, err := binary.ReadUvarint(d.r)
	if err != nil {
		return Record{}, unexpected(err, "instr count")
	}
	kind, err := d.r.ReadByte()
	if err != nil {
		return Record{}, unexpected(err, "kind")
	}
	blk := BlockAddr(int64(d.prev) + unzigzag(delta))
	rec := Record{Block: blk, Instrs: uint16(instrs), Kind: Kind(kind)}
	if err := rec.Validate(); err != nil {
		return Record{}, err
	}
	d.prev = blk
	return rec, nil
}

func unexpected(err error, what string) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("trace: decoding %s: %w", what, err)
}
