//go:build race

package collect

// raceEnabled reports a build under the race detector.
const raceEnabled = true
