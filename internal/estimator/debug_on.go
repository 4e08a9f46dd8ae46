//go:build pcdebug

package estimator

import "fmt"

// debugCheckBins panics on the first inconsistency checkBins reports.
// Enabled by `go test -tags pcdebug`: a row binned twice, dropped or filed
// under the wrong code then fails at the build, not in a skewed quantile.
func debugCheckBins(t *binTable, nonNaN []uint32) {
	if err := checkBins(t, nonNaN); err != nil {
		panic(err)
	}
}

// checkBins reports the first code whose bin counts do not sum to its
// non-NaN count in nonNaN (nil skips that check: statistics may not record
// NULL counts), or the first bin whose column count is not the sum of the
// codes' counts in it. An ungrouped table has nothing to check.
func checkBins(t *binTable, nonNaN []uint32) error {
	if t.byCode == nil {
		return nil
	}
	nb := len(t.hist)
	sums := make([]int, nb)
	for c := 0; c*nb < len(t.byCode); c++ {
		n := 0
		for k, b := range t.byCode[c*nb : (c+1)*nb] {
			sums[k] += int(b)
			n += int(b)
		}
		if nonNaN != nil && n != int(nonNaN[c]) {
			return fmt.Errorf("estimator: code %d has %d binned cells and %d non-NaN cells", c, n, nonNaN[c])
		}
	}
	for k, n := range sums {
		if n != t.hist[k] {
			return fmt.Errorf("estimator: bin %d counts %d cells over the codes and %d in the column histogram", k, n, t.hist[k])
		}
	}
	return nil
}
