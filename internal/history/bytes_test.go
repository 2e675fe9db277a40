package history

import (
	"runtime"
	"testing"
)

// leastAlloc returns the fewest bytes any of three calls of build
// allocates. TotalAlloc is process-wide, so whatever else allocates
// meanwhile can only add to a reading; the least of three is the
// construction's own.
func leastAlloc(build func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// header bounds a table's struct and its smallest arrays, each rounded up
// to its allocation size class.
const header = 256

// TestIndexTableHostBytes is the footprint gate of the index table: 8
// bytes an entry and one bit a set, on fresh memory (nothing is released,
// so each construction allocates anew).
func TestIndexTableHostBytes(t *testing.T) {
	for _, shape := range []struct{ entries, assoc int }{{8192, 4}, {512, 4}, {32768, 8}, {4096, 1}} {
		got := leastAlloc(func() { MustNewIndexTable(shape.entries, shape.assoc) })
		sets := shape.entries / shape.assoc
		limit := uint64(8*shape.entries + (sets+63)/64*8 + header)
		t.Logf("%d/%d: %d B, %.2f B/entry", shape.entries, shape.assoc, got, float64(got)/float64(shape.entries))
		if got > limit {
			t.Errorf("%d/%d index table allocates %d B, limit %d (8 B an entry, a bit a set)", shape.entries, shape.assoc, got, limit)
		}
	}
}

// TestBufferHostBytes is the footprint gate of the history buffer: a
// buffer of capacity C built for a W-record window allocates at most
// 8·min(C, W) bytes plus its header (W 0: the whole capacity).
func TestBufferHostBytes(t *testing.T) {
	for _, tc := range []struct{ capacity, writes int }{{32768, 1024}, {32768, 0}, {2048, 1 << 20}, {4096, 4096}} {
		got := leastAlloc(func() { MustNewBuffer(tc.capacity, tc.writes) })
		words := tc.capacity
		if tc.writes > 0 {
			words = min(words, tc.writes)
		}
		limit := uint64(8*words + header)
		t.Logf("capacity %d, window %d: %d B", tc.capacity, tc.writes, got)
		if got > limit {
			t.Errorf("capacity %d, window %d: buffer allocates %d B, limit %d", tc.capacity, tc.writes, got, limit)
		}
	}
}
