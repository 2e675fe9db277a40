// Package lib is the reachability gate's fixture: one symbol of each
// kind the gate must tell apart.
package lib

// Used is called from package main: reached.
func Used() int { return 1 }

// Dead is called from nowhere: a finding.
func Dead() int { return 2 }

// Shape is an interface nothing uses as the type of a value.
type Shape interface{ Area() int }

// Square satisfies Shape, but only an assertion says so.
type Square struct{ Side int }

var _ Shape = Square{}

// Area is reached only through the assertion above: a finding.
func (s Square) Area() int { return s.Side * s.Side }

// String satisfies fmt.Stringer: reached through fmt.
func (s Square) String() string { return "square" }

// Counter holds one field of each kind the field gate must tell apart.
type Counter struct {
	hits int // only ever incremented: a finding
	seen int // written, and read once by Seen
	set  int // set only as a composite-literal key: a finding
	// Wire is written and only the JSON encoder reads it.
	Wire int `json:"wire"`
}

// NewCounter sets set, which nothing reads.
func NewCounter() *Counter { return &Counter{set: 1} }

// Hit counts a hit nobody reads and sees it.
func (c *Counter) Hit() {
	c.hits++
	c.seen = 1
	c.Wire = 2
}

// Seen reads seen.
func (c *Counter) Seen() int { return c.seen }
