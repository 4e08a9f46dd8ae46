//go:build !pcdebug

package estimator

// debugCheckBins is a no-op in normal builds. Builds tagged `pcdebug` check
// every per-code bin table against its counts when it is built.
func debugCheckBins(t *binTable, nonNaN []uint32) {}
