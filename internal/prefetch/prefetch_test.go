package prefetch

import (
	"testing"

	"shift/internal/trace"
)

func TestNullPrefetcher(t *testing.T) {
	p := NewNull()
	if reqs := p.OnAccess(Access{Block: 5}); reqs != nil {
		t.Errorf("Null issued requests: %v", reqs)
	}
}

func TestNextLineOnMiss(t *testing.T) {
	p := NewNextLine(1)
	reqs := p.OnAccess(Access{Block: 100, Hit: false})
	if len(reqs) != 1 || reqs[0].Block != 101 {
		t.Fatalf("reqs = %v, want [101]", reqs)
	}
}

func TestNextLineDegree(t *testing.T) {
	p := NewNextLine(4)
	reqs := p.OnAccess(Access{Block: 100, Hit: false})
	if len(reqs) != 4 {
		t.Fatalf("degree 4 issued %d requests", len(reqs))
	}
	for i, r := range reqs {
		if r.Block != trace.BlockAddr(101+i) {
			t.Errorf("req %d = %v", i, r.Block)
		}
	}
}

func TestNextLineTagged(t *testing.T) {
	p := NewNextLine(1)
	// Plain hit: no prefetch.
	if reqs := p.OnAccess(Access{Block: 100, Hit: true}); len(reqs) != 0 {
		t.Error("prefetched on plain hit")
	}
	// First use of a prefetched line continues the stream.
	reqs := p.OnAccess(Access{Block: 101, Hit: true, WasPrefetch: true})
	if len(reqs) != 1 || reqs[0].Block != 102 {
		t.Errorf("tagged continuation missing: %v", reqs)
	}
}

func TestNextLineAddressSpaceEdge(t *testing.T) {
	p := NewNextLine(4)
	reqs := p.OnAccess(Access{Block: trace.MaxBlockAddr, Hit: false})
	if len(reqs) != 0 {
		t.Errorf("prefetched past the address space: %v", reqs)
	}
}

func TestNextLineDefaultDegree(t *testing.T) {
	p := NewNextLine(0)
	if reqs := p.OnAccess(Access{Block: 1, Hit: false}); len(reqs) != 1 {
		t.Errorf("default degree issued %d", len(reqs))
	}
}

func TestNextLineStats(t *testing.T) {
	p := NewNextLine(1)
	p.OnAccess(Access{Block: 1, Hit: false})
	p.OnAccess(Access{Block: 2, Hit: true})
	st := p.PrefetchStats()
	if st.Accesses != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStatsHelpers(t *testing.T) {
	var s Stats
	if s.AccessCoverage() != 0 || s.MissCoverage() != 0 {
		t.Error("empty stats coverage should be 0")
	}
	s = Stats{Accesses: 10, CoveredAccesses: 9, Misses: 4, CoveredMisses: 2}
	if s.AccessCoverage() != 0.9 {
		t.Errorf("AccessCoverage = %v", s.AccessCoverage())
	}
	if s.MissCoverage() != 0.5 {
		t.Errorf("MissCoverage = %v", s.MissCoverage())
	}
	var sum Stats
	sum.Add(s)
	sum.Add(s)
	if sum.Accesses != 20 || sum.CoveredMisses != 4 {
		t.Errorf("Add: %+v", sum)
	}
}
