//go:build race

package fabric

// raceEnabled: the race detector allocates, so allocation ceilings are not
// asserted under it.
const raceEnabled = true
