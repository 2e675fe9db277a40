package freelist

import "testing"

type table struct{ id int }

func TestKeyedRoundTrip(t *testing.T) {
	var f Keyed[int, table]
	if f.Get(1) != nil {
		t.Fatal("Get on an empty family returned a value")
	}
	// sync.Pool may drop a Put (and does, at random, under -race), so
	// retry until one comes back.
	var got *table
	for try := 0; try < 100 && got == nil; try++ {
		f.Put(1, &table{id: try})
		if f.Get(2) != nil {
			t.Fatal("Get returned a value of another geometry")
		}
		got = f.Get(1)
	}
	if got == nil {
		t.Fatal("no Put ever came back from Get")
	}
	if f.Get(1) != nil {
		t.Fatal("one Put came back twice")
	}
}

func TestKeyedBoundsGeometries(t *testing.T) {
	var f Keyed[int, table]
	for k := 0; k < 3*maxGeometries; k++ {
		f.Put(k, &table{id: k})
		if n := len(f.lists); n > maxGeometries {
			t.Fatalf("%d lists held after %d geometries, bound is %d", n, k+1, maxGeometries)
		}
	}
}
