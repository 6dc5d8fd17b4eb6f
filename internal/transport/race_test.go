//go:build race

package transport

// The race detector's instrumentation allocates on paths that are
// allocation-free in a normal build, so the AllocsPerRun pins skip
// themselves when it is on (the plain CI lane still enforces them).
const raceEnabled = true
