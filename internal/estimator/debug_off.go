//go:build !pcdebug

package estimator

// debugCheckBins is a no-op in normal builds. Builds tagged `pcdebug` check
// every per-code bin table against its counts when it is built.
func debugCheckBins(t *binTable, nonNaN []uint32) {}

// debugCheckPlacement is a no-op in normal builds. Builds tagged `pcdebug`
// check every confirmed placement guess against the binary search.
func debugCheckPlacement(edges []float64, x float64, k int) {}

// debugCheckSelection is a no-op in normal builds. Builds tagged `pcdebug`
// check every code list compiled from an Eq or In against Match.
func debugCheckSelection(domain []string, pred Predicate, codes []uint32) {}
