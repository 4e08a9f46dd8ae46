//go:build race

package csvio

// raceEnabled reports a build under the race detector.
const raceEnabled = true
