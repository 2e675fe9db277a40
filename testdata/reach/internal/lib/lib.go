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
