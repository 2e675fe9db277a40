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
	late int // read only to be added back into itself: a finding
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

// Merge adds o's late count into c's: a read of late that flows only
// back into late.
func (c *Counter) Merge(o Counter) { c.late += o.late }

// Sum returns the two counters' late counts added into a new Counter.
func (c Counter) Sum(o Counter) Counter { return Counter{late: c.late + o.late} }

// Bump counts a late event nothing reads.
func (c *Counter) Bump() { c.late++ }

// Discarded's one caller calls it as a statement: a finding.
func Discarded() int { return 3 }

// Pair's first result is read once and its second never: the second is
// a finding.
func Pair() (int, bool) { return 4, true }

// Callback is used as a value, so the gate cannot see all its callers:
// never a finding.
func Callback() int { return 5 }

// Sink is an interface main holds a value of: its methods are judged by
// the calls made through it.
type Sink interface {
	// Put's error is read by one caller and dropped by another.
	Put(v int) error
	// Flush's error every caller drops: a finding.
	Flush() error
}

// Log is the one Sink.
type Log struct{}

// Put implements Sink.
func (*Log) Put(v int) error { return nil }

// Flush implements Sink.
func (*Log) Flush() error { return nil }
