//go:build race

package remote

// raceEnabled: the race detector's instrumentation allocates, and sync.Pool
// drops items at random under it, so allocation ceilings are not asserted.
const raceEnabled = true
