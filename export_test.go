package shift

import (
	"testing"

	"shift/internal/freelist"
)

// emptyFreeLists drops every table the simulator's free lists hold, so
// the next construction builds on fresh memory as a new process would.
func emptyFreeLists() { freelist.Trim() }

// holdFreeLists marks a batch as running until t ends, so that only
// emptyFreeLists empties the free lists: a gate that reads their reuse
// does not see the idle timer or a store-answered call trim them between
// its warm-up and its measurement, however slow the host.
func holdFreeLists(t *testing.T) {
	freelist.Begin()
	t.Cleanup(freelist.End)
}
