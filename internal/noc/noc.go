// Package noc models the on-chip interconnect of the simulated CMP: the
// 4x4 2D mesh with 3 cycles/hop of Table I. It provides hop distances
// for core↔LLC-bank round trips (the simulator's latency is hops times
// HopCycles each way) and per-message-class traffic accounting, which
// feeds both the Figure 9 LLC-traffic study and the Section 5.7 power
// analysis.
//
// The paper notes that LLC bandwidth is ample (utilization well under 10%),
// so the mesh is modelled contention-free: latency is hop count times
// per-hop delay, and traffic is accounted, not throttled.
package noc

import (
	"fmt"

	"shift/internal/trace"
)

// MsgClass labels the traffic classes distinguished in the paper's LLC
// overhead analysis (Section 5.4).
type MsgClass uint8

const (
	// DemandInstr is a demand instruction-block request + fill.
	DemandInstr MsgClass = iota
	// DemandData is a demand data-block request + fill.
	DemandData
	// PrefetchFill is a prefetch request + instruction block fill.
	PrefetchFill
	// HistRead is a history-buffer block read (the paper's "LogRead").
	HistRead
	// HistWrite is a history-buffer block write (the paper's "LogWrite").
	HistWrite
	// IndexUpdate is an index-pointer update (LLC tag array only).
	IndexUpdate
	// Discard is the fill of a mispredicted block that is evicted before
	// use (counted when the discard is detected).
	Discard
	msgClassCount
)

var msgClassNames = [...]string{
	"DemandInstr", "DemandData", "PrefetchFill",
	"HistRead", "HistWrite", "IndexUpdate", "Discard",
}

// String names the class.
func (m MsgClass) String() string {
	if int(m) < len(msgClassNames) {
		return msgClassNames[m]
	}
	return fmt.Sprintf("MsgClass(%d)", uint8(m))
}

// NumClasses is the number of message classes.
const NumClasses = int(msgClassCount)

// Config sizes the mesh.
type Config struct {
	// Width and Height are the mesh dimensions (4x4 in Table I).
	Width, Height int
	// HopCycles is the per-hop latency (3 in Table I).
	HopCycles int
}

// DefaultConfig is the Table I mesh.
func DefaultConfig() Config { return Config{Width: 4, Height: 4, HopCycles: 3} }

// Validate reports the first problem with c, or nil.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("noc: bad mesh %dx%d", c.Width, c.Height)
	}
	if c.HopCycles < 0 {
		return fmt.Errorf("noc: negative hop latency %d", c.HopCycles)
	}
	return nil
}

// Tiles returns the number of mesh tiles.
func (c Config) Tiles() int { return c.Width * c.Height }

// Mesh is the interconnect model plus its traffic counters.
type Mesh struct {
	cfg Config
	// hopTable[a*tiles+b] caches the Manhattan distance between every
	// tile pair (256 entries for the 4x4 mesh), keeping the per-message
	// routing math off the simulator hot path.
	hopTable []int8
	tiles    int
	// bankMask enables mask-based bank interleaving when the tile count
	// is a power of two (-1 otherwise, falling back to modulo).
	bankMask int64
	// traffic[class] counts messages; hops[class] accumulates hop counts
	// (for energy).
	traffic [NumClasses]int64
	hops    [NumClasses]int64
}

// New builds a mesh.
func New(cfg Config) (*Mesh, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Mesh{cfg: cfg, tiles: cfg.Tiles(), bankMask: -1}
	if m.tiles&(m.tiles-1) == 0 {
		m.bankMask = int64(m.tiles - 1)
	}
	m.hopTable = make([]int8, m.tiles*m.tiles)
	for a := 0; a < m.tiles; a++ {
		ax, ay := m.coord(a)
		for b := 0; b < m.tiles; b++ {
			bx, by := m.coord(b)
			m.hopTable[a*m.tiles+b] = int8(abs(ax-bx) + abs(ay-by))
		}
	}
	return m, nil
}

// MustNew panics on config errors.
func MustNew(cfg Config) *Mesh {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// coord returns the (x, y) position of tile t.
func (m *Mesh) coord(t int) (x, y int) { return t % m.cfg.Width, t / m.cfg.Width }

// Hops returns the Manhattan hop distance between tiles a and b.
func (m *Mesh) Hops(a, b int) int {
	return int(m.hopTable[a*m.tiles+b])
}

// BankForBlock statically interleaves block addresses across LLC banks
// (one bank per tile, as in the paper's tiled design).
func (m *Mesh) BankForBlock(b trace.BlockAddr) int {
	if m.bankMask >= 0 {
		return int(int64(b) & m.bankMask)
	}
	return int(uint64(b) % uint64(m.tiles))
}

// Account records one message of class cls that travels hops hops; the
// caller routes it (see Hops), or passes 0 for an event whose endpoints
// are implicit, e.g. discard detection inside a bank.
func (m *Mesh) Account(cls MsgClass, hops int) {
	m.traffic[cls]++
	m.hops[cls] += int64(hops)
}

// Traffic returns the message count for a class.
func (m *Mesh) Traffic(cls MsgClass) int64 { return m.traffic[cls] }

// HopCount returns the accumulated hop count for a class (energy proxy).
func (m *Mesh) HopCount(cls MsgClass) int64 { return m.hops[cls] }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
