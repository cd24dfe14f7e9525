//go:build !race

package antientropy

const raceEnabled = false
