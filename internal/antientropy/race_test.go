//go:build race

package antientropy

// raceEnabled: the race detector slows the sweep tenfold, so it sweeps a
// tenth of the seeds unless -seeds says otherwise.
const raceEnabled = true
