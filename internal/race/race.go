//go:build race

// Package race reports whether the program was built with the race
// detector, which changes what allocation and heap readings mean: it
// instruments every access, and every sync.Pool drops a quarter of what
// is put in it.
package race

// Enabled is true when the race detector is built in.
const Enabled = true
