package noc

import (
	"testing"
	"testing/quick"

	"shift/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Width: 0, Height: 4, HopCycles: 3},
		{Width: 4, Height: -1, HopCycles: 3},
		{Width: 4, Height: 4, HopCycles: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if DefaultConfig().Tiles() != 16 {
		t.Errorf("Tiles = %d, want 16", DefaultConfig().Tiles())
	}
}

func TestHops(t *testing.T) {
	m := MustNew(DefaultConfig())
	cases := []struct{ a, b, want int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 4, 1},  // one row down
		{0, 5, 2},  // diagonal neighbor
		{0, 15, 6}, // corner to corner: 3+3
		{3, 12, 6},
	}
	for _, c := range cases {
		if got := m.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := m.Hops(c.b, c.a); got != c.want {
			t.Errorf("Hops not symmetric for (%d,%d)", c.a, c.b)
		}
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	m := MustNew(DefaultConfig())
	f := func(a, b, c uint8) bool {
		x, y, z := int(a%16), int(b%16), int(c%16)
		return m.Hops(x, z) <= m.Hops(x, y)+m.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBankForBlockCoversAllBanks(t *testing.T) {
	m := MustNew(DefaultConfig())
	seen := make(map[int]bool)
	for b := 0; b < 1000; b++ {
		bank := m.BankForBlock(trace.BlockAddr(b))
		if bank < 0 || bank >= 16 {
			t.Fatalf("bank %d out of range", bank)
		}
		seen[bank] = true
	}
	if len(seen) != 16 {
		t.Errorf("only %d banks used", len(seen))
	}
}

func TestTrafficAccounting(t *testing.T) {
	m := MustNew(DefaultConfig())
	m.Account(DemandInstr, 2*m.Hops(0, 15))
	m.Account(DemandInstr, 2*m.Hops(0, 1))
	m.Account(HistRead, 2*m.Hops(2, 3))
	m.Account(Discard, 0)
	if m.Traffic(DemandInstr) != 2 || m.Traffic(HistRead) != 1 || m.Traffic(Discard) != 1 || m.Traffic(PrefetchFill) != 0 {
		t.Errorf("traffic: %d %d %d %d", m.Traffic(DemandInstr), m.Traffic(HistRead), m.Traffic(Discard), m.Traffic(PrefetchFill))
	}
	if m.HopCount(DemandInstr) != 14 || m.HopCount(HistRead) != 2 || m.HopCount(Discard) != 0 {
		t.Errorf("hops: %d %d %d", m.HopCount(DemandInstr), m.HopCount(HistRead), m.HopCount(Discard))
	}
}

func TestMsgClassString(t *testing.T) {
	names := map[MsgClass]string{
		DemandInstr: "DemandInstr", DemandData: "DemandData",
		PrefetchFill: "PrefetchFill", HistRead: "HistRead",
		HistWrite: "HistWrite", IndexUpdate: "IndexUpdate", Discard: "Discard",
	}
	for cls, want := range names {
		if cls.String() != want {
			t.Errorf("%d.String() = %q, want %q", cls, cls.String(), want)
		}
	}
	if MsgClass(99).String() == "" {
		t.Error("unknown class should still format")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on bad config")
		}
	}()
	MustNew(Config{})
}
