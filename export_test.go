package shift

import "runtime"

// emptyFreeLists drops every table the simulator's free lists hold, so
// the next construction builds on fresh memory as a new process would.
// The lists are sync.Pools, which the runtime empties over two
// collections (the first moves a pool's content to its victim cache,
// the second drops that). Tests only: production code has no way, and
// no need, to do this.
func emptyFreeLists() {
	runtime.GC()
	runtime.GC()
}
