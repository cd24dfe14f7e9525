//go:build !race

package federation

const raceEnabled = false
