package workload

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"shift/internal/trace"
)

func smallParams() Params {
	return Params{
		Name: "test", Seed: 1,
		FootprintBytes:   64 * 1024,
		OSFootprintBytes: 8 * 1024,
		RequestTypes:     4, RequestZipf: 0.5,
		FuncBlocksMean: 5, CallDepth: 5, CallSiteDensity: 0.3,
		VaryProb: 0.05, SkipProb: 0.05,
		TrapRate: 0.003, SchedProb: 0.2,
		LoopWeight: 0.1,
	}
}

func TestParamsValidate(t *testing.T) {
	if err := smallParams().Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Params)
	}{
		{"empty name", func(p *Params) { p.Name = "" }},
		{"tiny footprint", func(p *Params) { p.FootprintBytes = 10 }},
		{"tiny OS", func(p *Params) { p.OSFootprintBytes = 10 }},
		{"footprint past the OS base", func(p *Params) { p.FootprintBytes = maxFootprintBytes + 1 }},
		{"OS footprint past the bound", func(p *Params) { p.OSFootprintBytes = maxFootprintBytes + 1 }},
		{"no request types", func(p *Params) { p.RequestTypes = 0 }},
		{"zero func size", func(p *Params) { p.FuncBlocksMean = 0 }},
		{"zero depth", func(p *Params) { p.CallDepth = 0 }},
		{"bad density", func(p *Params) { p.CallSiteDensity = 1.5 }},
		{"bad vary", func(p *Params) { p.VaryProb = -0.1 }},
		{"bad skip", func(p *Params) { p.SkipProb = 2 }},
		{"bad trap", func(p *Params) { p.TrapRate = -1 }},
		{"bad sched", func(p *Params) { p.SchedProb = 1.1 }},
		{"bad loop", func(p *Params) { p.LoopWeight = -0.5 }},
		{"bad zipf", func(p *Params) { p.RequestZipf = -1 }},
	}
	for _, m := range mutations {
		p := smallParams()
		m.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestNewBuildsProgram(t *testing.T) {
	w, err := New(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if w.NumFunctions() < 10 {
		t.Errorf("too few functions: %d", w.NumFunctions())
	}
	wantApp := smallParams().FootprintBytes / trace.BlockBytes
	if got := w.appBlocks(); got != wantApp {
		t.Errorf("AppBlocks = %d, want %d", got, wantApp)
	}
	wantOS := smallParams().OSFootprintBytes / trace.BlockBytes
	if got := w.OSBlocks(); got != wantOS {
		t.Errorf("OSBlocks = %d, want %d", got, wantOS)
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	p := smallParams()
	p.RequestTypes = 0
	if _, err := New(p); err == nil {
		t.Error("invalid params accepted")
	}
	// Footprint too small for the request-type count.
	p = smallParams()
	p.FootprintBytes = 16 * trace.BlockBytes
	p.RequestTypes = 100
	if _, err := New(p); err == nil {
		t.Error("footprint/request-type mismatch accepted")
	}
}

func TestReaderEmitsValidRecords(t *testing.T) {
	w, err := New(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	r := w.NewCoreReader(0)
	for i := 0; i < 50000; i++ {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if err := rec.Validate(); err != nil {
			t.Fatalf("record %d invalid: %v (%+v)", i, err, rec)
		}
	}
}

func TestReaderDeterministic(t *testing.T) {
	w, err := New(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	a := w.NewCoreReader(3)
	b := w.NewCoreReader(3)
	for i := 0; i < 10000; i++ {
		ra, _ := a.Next()
		rb, _ := b.Next()
		if ra != rb {
			t.Fatalf("record %d differs: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestReaderCoresDiffer(t *testing.T) {
	w, err := New(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	a := w.NewCoreReader(0)
	b := w.NewCoreReader(1)
	same := 0
	const n = 10000
	for i := 0; i < n; i++ {
		ra, _ := a.Next()
		rb, _ := b.Next()
		if ra.Block == rb.Block {
			same++
		}
	}
	if same > n/2 {
		t.Errorf("cores 0 and 1 identical on %d/%d records; should be independent interleavings", same, n)
	}
}

func TestReaderAddressesInRegions(t *testing.T) {
	w, err := New(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	appLo, appHi := appBaseBlock, appBaseBlock+trace.BlockAddr(w.appBlocks())
	osLo, osHi := osBaseBlock, osBaseBlock+trace.BlockAddr(w.OSBlocks())
	r := w.NewCoreReader(0)
	osSeen := false
	for i := 0; i < 100000; i++ {
		rec, _ := r.Next()
		inApp := rec.Block >= appLo && rec.Block < appHi
		inOS := rec.Block >= osLo && rec.Block < osHi
		if !inApp && !inOS {
			t.Fatalf("record %d outside both regions: %v", i, rec.Block)
		}
		if inOS {
			osSeen = true
		}
	}
	if !osSeen {
		t.Error("no OS code observed in 100k records despite TrapRate/SchedProb > 0")
	}
}

func TestReaderKindMix(t *testing.T) {
	w, err := New(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.Measure(trace.Limit(w.NewCoreReader(0), 200000))
	if err != nil {
		t.Fatal(err)
	}
	// All kinds should occur.
	for k := trace.KindSeq; k <= trace.KindTrap; k++ {
		if st.KindCounts[k] == 0 {
			t.Errorf("kind %v never occurred", k)
		}
	}
	// Sequential fraction should be substantial but not dominant
	// (the next-line coverage band of server workloads).
	if f := st.SeqFraction(); f < 0.2 || f > 0.75 {
		t.Errorf("SeqFraction = %v outside [0.2, 0.75]", f)
	}
}

func TestReaderTouchesMostOfFootprint(t *testing.T) {
	p := smallParams()
	p.TrapRate = 0
	p.SchedProb = 0
	w, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.Measure(trace.Limit(w.NewCoreReader(0), 400000))
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(st.UniqueBlocks) / float64(w.appBlocks())
	if frac < 0.5 {
		t.Errorf("only %.0f%% of footprint touched in 400k records", frac*100)
	}
}

func TestCallDepthBounded(t *testing.T) {
	w, err := New(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	r := w.NewCoreReader(0)
	maxDepth := 0
	for i := 0; i < 100000; i++ {
		r.Next()
		if d := len(r.stack); d > maxDepth {
			maxDepth = d
		}
	}
	// CallDepth app frames + at most a few OS frames.
	limit := smallParams().CallDepth + 8
	if maxDepth > limit {
		t.Errorf("stack depth reached %d, want <= %d", maxDepth, limit)
	}
}

func TestStackNeverNegative(t *testing.T) {
	f := func(seed int64) bool {
		p := smallParams()
		p.Seed = seed % 1000
		w, err := New(p)
		if err != nil {
			return false
		}
		r := w.NewCoreReader(int(seed % 7))
		for i := 0; i < 5000; i++ {
			if _, err := r.Next(); err != nil {
				return false
			}
			if len(r.stack) < 0 || r.osDepth < 0 || r.osDepth > len(r.stack) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 7 {
		t.Fatalf("catalog has %d workloads, want 7 (Table I)", len(cat))
	}
	want := []string{"OLTP DB2", "OLTP Oracle", "DSS Qry 2", "DSS Qry 17",
		"Media Streaming", "Web Frontend", "Web Search"}
	for i, p := range cat {
		if p.Name != want[i] {
			t.Errorf("catalog[%d] = %q, want %q", i, p.Name, want[i])
		}
		if err := p.Validate(); err != nil {
			t.Errorf("catalog[%d] invalid: %v", i, err)
		}
		if _, err := New(Scaled(p, 0.05)); err != nil {
			t.Errorf("catalog[%d] scaled build failed: %v", i, err)
		}
	}
	if !strings.Contains(strings.Join(Names(), ","), "OLTP Oracle") {
		t.Error("Names missing OLTP Oracle")
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("Web Search")
	if err != nil || p.Name != "Web Search" {
		t.Errorf("ByName(Web Search) = %+v, %v", p.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestScaledFloors(t *testing.T) {
	p := smallParams()
	q := Scaled(p, 0.0001)
	if q.FootprintBytes < 16*64 || q.OSFootprintBytes < 4*64 || q.RequestTypes < 1 {
		t.Errorf("Scaled did not floor: %+v", q)
	}
}

func TestOLTPBiggerThanSearch(t *testing.T) {
	oracle, _ := ByName("OLTP Oracle")
	search, _ := ByName("Web Search")
	if oracle.FootprintBytes <= search.FootprintBytes {
		t.Error("OLTP Oracle should have the larger instruction footprint")
	}
}

// TestGraphBuildBytes: New sizes the function and call-site tables
// before it fills them, so building a catalog workload's graph allocates
// at most 1.25 times what the graph retains. Grown by append from empty,
// OLTP Oracle's allocated 1.94 MB for a 0.66 MB graph.
func TestGraphBuildBytes(t *testing.T) {
	for _, p := range Catalog() {
		var before, built, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		w, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&built)
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(w)
		allocated := built.TotalAlloc - before.TotalAlloc
		retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		t.Logf("%s: New allocates %d B for a graph of %d B", p.Name, allocated, retained)
		if float64(allocated) > 1.25*float64(retained) {
			t.Errorf("%s: New allocates %d B for a graph of %d B, limit 1.25x", p.Name, allocated, retained)
		}
	}
}

// NumFunctions and OSBlocks serve only these tests.

// NumFunctions returns the number of application functions.
func (w *Workload) NumFunctions() int { return len(w.funcs) }

// OSBlocks returns the number of OS code blocks.
func (w *Workload) OSBlocks() int {
	n := 0
	for _, f := range w.osFuncs {
		n += int(f.blocks)
	}
	return n
}
