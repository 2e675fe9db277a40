package main

import "time"

// canarySink keeps the kernel's result alive so the compiler cannot
// drop the loop.
var canarySink uint64

// canaryMs times a fixed pure-Go integer kernel (xorshift over a 1 MiB
// table: ALU work plus cache-resident loads, no allocation, no system
// calls; ~42 ms on the sizing host when it is quiet). A worker takes a
// reading before each timed repetition and one after the last; a run
// whose readings disagree, or sit far from the host's usual one, was
// disturbed and says so in its own output. The readings are diagnostic
// only and never rescale a metric: one reading per two-second
// repetition does not track what that repetition suffered (rescaling
// widened the spread of both sweeps when it was tried).
func canaryMs() float64 {
	const words = 1 << 17
	var table [words]uint64
	x := uint64(0x9E3779B97F4A7C15)
	start := time.Now()
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (words - 1)
		table[j] += x
		x += table[(j+1)&(words-1)]
	}
	d := time.Since(start)
	canarySink += x
	return float64(d) / float64(time.Millisecond)
}
