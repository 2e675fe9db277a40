package workload

import "shift/internal/trace"

// streamChunk is the record-production granularity of a CoreStream: the
// producer runs the stack-machine executor for this many records in one
// tight loop, which amortizes its setup and keeps the executor's state
// hot instead of interleaving one record of generation with thousands
// of simulation instructions. 1024 records is 16KB of chunk storage —
// small enough that a live window of a few chunks stays cache-resident.
const streamChunk = 1024

// CoreStream splits a core's trace generation into a chunked record
// producer and any number of zero-copy consumer views: the underlying
// CoreReader (the stack-machine executor plus its RNG — pure per-record
// overhead when duplicated) runs exactly once, filling shared chunks
// that every StreamView reads in place. It is the fan-out mechanism of
// the batched execution path (sim.RunBatch): K design points of one
// workload consume one generated stream instead of generating K
// identical ones.
//
// Chunks are produced lazily when the most-advanced view steps past the
// produced window, and recycled once every view has fully consumed
// them, so the live window is bounded by the views' skew (the batch
// runner steps consumers in bounded lockstep) plus one chunk — steady
// state allocates nothing.
//
// A CoreStream and its views are NOT safe for concurrent use: all
// views must be advanced from a single goroutine, exactly how the
// batch runner drives its systems.
type CoreStream struct {
	src   *CoreReader
	views []StreamView

	// chunks is the live window; chunks[0] holds records starting at
	// absolute index base. Every chunk is exactly streamChunk records
	// (the synthetic stream never ends), packed 8 bytes per record —
	// block (34 bits), instruction count, and kind fit one word, and
	// halving the chunk footprint halves the memory traffic of
	// consumers that read a chunk long after it was produced (the
	// coarse-block lockstep schedule of sim.RunBatch).
	chunks [][]uint64
	base   int64
	// produced is the total number of records generated so far.
	produced int64
	// free holds recycled chunk buffers for reuse.
	free [][]uint64
}

// packRecord packs a record into one word: block in the high bits (a
// valid block address is 34 bits — far below the 45 available), then
// the 16-bit retire count, then the 3-bit kind.
func packRecord(rec trace.Record) uint64 {
	return uint64(rec.Block)<<19 | uint64(rec.Instrs)<<3 | uint64(rec.Kind)
}

// unpackRecord inverts packRecord.
func unpackRecord(w uint64) trace.Record {
	return trace.Record{Block: trace.BlockAddr(w >> 19), Instrs: uint16(w >> 3), Kind: trace.Kind(w & 7)}
}

// NewCoreStream returns a chunked single-producer replay of core's
// instruction stream for `consumers` lockstep consumers. The record
// sequence seen by every view is identical to w.NewCoreReader(core) —
// bit-for-bit, including RNG-driven control-flow decisions — because
// the views share one such reader.
func (w *Workload) NewCoreStream(core, consumers int) *CoreStream {
	cs := &CoreStream{src: w.NewCoreReader(core), views: make([]StreamView, consumers)}
	for i := range cs.views {
		cs.views[i].cs = cs
	}
	return cs
}

// View returns consumer i's reader over the shared stream.
func (cs *CoreStream) View(i int) *StreamView { return &cs.views[i] }

// produce generates the next chunk, first recycling chunks that every
// view has fully consumed.
func (cs *CoreStream) produce() {
	min := cs.views[0].pos
	for i := 1; i < len(cs.views); i++ {
		if cs.views[i].pos < min {
			min = cs.views[i].pos
		}
	}
	// A view whose cached chunk is recycled has already consumed it
	// completely, so its fast path can never read the re-filled buffer:
	// the next Next() falls into nextSlow and re-resolves the chunk.
	for len(cs.chunks) > 0 && cs.base+streamChunk <= min {
		cs.free = append(cs.free, cs.chunks[0])
		n := copy(cs.chunks, cs.chunks[1:])
		cs.chunks = cs.chunks[:n]
		cs.base += streamChunk
	}
	var buf []uint64
	if n := len(cs.free); n > 0 {
		buf = cs.free[n-1]
		cs.free = cs.free[:n-1]
	} else {
		buf = make([]uint64, streamChunk)
	}
	for i := range buf {
		rec, _ := cs.src.Next() // CoreReader.Next never fails
		buf[i] = packRecord(rec)
	}
	cs.chunks = append(cs.chunks, buf)
	cs.produced += streamChunk
}

// StreamView is one consumer's zero-copy cursor over a CoreStream. It
// implements trace.Reader and, like CoreReader, never returns io.EOF:
// the synthetic stream is unbounded and callers limit it by record
// budget.
type StreamView struct {
	cs  *CoreStream
	pos int64
	// cur caches the chunk containing pos (curBase is its first
	// record's absolute index), so the steady-state Next is one bounds
	// check, one indexed load, and an unpack.
	cur     []uint64
	curBase int64
}

// Next implements trace.Reader; the error is always nil.
func (v *StreamView) Next() (trace.Record, error) {
	if i := v.pos - v.curBase; uint64(i) < uint64(len(v.cur)) {
		w := v.cur[i]
		v.pos++
		return unpackRecord(w), nil
	}
	return v.nextSlow()
}

// nextSlow advances the view into the next chunk, producing it if this
// view is the most advanced consumer.
func (v *StreamView) nextSlow() (trace.Record, error) {
	cs := v.cs
	if v.pos >= cs.produced {
		cs.produce()
	}
	idx := (v.pos - cs.base) / streamChunk
	v.cur = cs.chunks[idx]
	v.curBase = cs.base + idx*streamChunk
	w := v.cur[v.pos-v.curBase]
	v.pos++
	return unpackRecord(w), nil
}

var _ trace.Reader = (*StreamView)(nil)
