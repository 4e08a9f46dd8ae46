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

// debugCheckPlacement panics when a placement's confirmed guess k for x is
// not the bin binIndex's search gives, so every test that bins real data
// under the tag also checks the arithmetic placement.
func debugCheckPlacement(edges []float64, x float64, k int) {
	if want := binIndex(edges, x); k != want {
		panic(fmt.Sprintf("estimator: placement puts %v in bin %d of %v, and the search in bin %d", x, k, edges, want))
	}
}

// debugCheckSelection panics when codes, the code list compiled from an Eq
// or In by looking its values up in the sorted domain, is not the list of
// codes whose value Match accepts.
func debugCheckSelection(domain []string, pred Predicate, codes []uint32) {
	j := 0 // codes[:j] are the codes Match accepted so far
	for c, v := range domain {
		if listed := j < len(codes) && codes[j] == uint32(c); listed != pred.Match(v) {
			panic(fmt.Sprintf("estimator: %s selects codes %v, and Match(%q) is %v", pred, codes, v, !listed))
		} else if listed {
			j++
		}
	}
	if j != len(codes) {
		panic(fmt.Sprintf("estimator: %s selects codes %v, and Match accepts %d of them", pred, codes, j))
	}
}
