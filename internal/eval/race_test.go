//go:build race

package eval

// raceEnabled: the race detector's instrumentation allocates, so allocation
// ceilings are not asserted under it.
const raceEnabled = true
