//go:build race

package server

// raceEnabled reports a build under the race detector.
const raceEnabled = true
