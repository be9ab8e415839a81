//go:build race

package hotspot

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
