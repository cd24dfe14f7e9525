//go:build race

package federation

// raceEnabled: a race-detector build poisons a released workspace, so that a
// read after Release fails a test instead of reading the next query's rows;
// and the detector's instrumentation allocates, so tests assert no
// allocation ceiling under it.
const raceEnabled = true
