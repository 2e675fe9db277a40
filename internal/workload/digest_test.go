package workload

import (
	"hash/fnv"
	"testing"
)

// streamDigests pins the generated streams themselves: the FNV-1a hash of
// the first 65 536 records (block, retire count, kind) of cores 0, 3 and
// 15 of every catalog workload, as the generator stood before its draws
// were rewritten with constant divisors. TestReaderDeterministic only says
// a stream repeats; this says it is the stream every stored result key
// and every golden file was computed from. A change that moves one of
// these on purpose invalidates both.
var streamDigests = map[string][3]uint64{
	"OLTP DB2":        {0x35a0d5db6b47ce9b, 0x9c3dfcfe225231d4, 0x3353f86169bdee43},
	"OLTP Oracle":     {0xdc8d3e6f5bcbba48, 0x9238626c60d22f0e, 0x273d93310b2cf336},
	"DSS Qry 2":       {0x242fe6490a6580b0, 0xc9108dc5deff8f86, 0x45bb2c00f8f4a380},
	"DSS Qry 17":      {0x36e9c34dea9e82a5, 0x17edf43e0095f5d7, 0x6524eb0fff52529a},
	"Media Streaming": {0xfb5db48ea1cf272c, 0x434ce3d89dc0324e, 0x53e5a2fbdccc0a31},
	"Web Frontend":    {0xe7311d3c605cd715, 0xbfd00e35385e0b47, 0xbee64fe3418fd983},
	"Web Search":      {0x042c053b3b95c102, 0x980c40d6577cbfc1, 0xe2200cd8ee194310},
}

// streamDigest hashes the first 65 536 records of one core's stream.
func streamDigest(t *testing.T, p Params, core int) uint64 {
	t.Helper()
	w, err := Cached(p)
	if err != nil {
		t.Fatal(err)
	}
	r := w.NewCoreReader(core)
	h := fnv.New64a()
	var buf [11]byte
	for i := 0; i < 65536; i++ {
		rec, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		b := uint64(rec.Block)
		for k := 0; k < 8; k++ {
			buf[k] = byte(b >> (8 * k))
		}
		buf[8], buf[9], buf[10] = byte(rec.Instrs), byte(rec.Instrs>>8), byte(rec.Kind)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func TestStreamDigestsPinned(t *testing.T) {
	if len(streamDigests) != len(Catalog()) {
		t.Fatalf("%d digests pinned for a catalog of %d", len(streamDigests), len(Catalog()))
	}
	for _, p := range Catalog() {
		want, ok := streamDigests[p.Name]
		if !ok {
			t.Errorf("%s: no digest pinned", p.Name)
			continue
		}
		for i, core := range []int{0, 3, 15} {
			if got := streamDigest(t, p, core); got != want[i] {
				t.Errorf("%s core %d: stream digest %#016x, pinned %#016x", p.Name, core, got, want[i])
			}
		}
	}
}
