//go:build !pcdebug

package collect

// debugCheckRetained is a no-op in normal builds. Builds tagged `pcdebug`
// check every fold from retained columns against its segment's records.
func debugCheckRetained(path string, bs *batchSchema, batches []*batchCols) {}
