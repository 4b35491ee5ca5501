//go:build race

package server

// raceEnabled reports whether the race detector instruments this build;
// the allocation gate skips itself then, since instrumentation adds
// allocations of its own.
const raceEnabled = true
