//go:build race

package workload

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
