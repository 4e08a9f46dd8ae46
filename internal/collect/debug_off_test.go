//go:build !pcdebug

package collect

// debugChecks reports a build whose folds from retained columns re-read
// their segments (debug_on.go).
const debugChecks = false
