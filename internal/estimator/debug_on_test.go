//go:build pcdebug

package estimator

import "testing"

// TestCheckBins: the pcdebug assertion accepts a resident bin table as
// built and names one whose per-code counts disagree with the non-NaN
// counts or whose column histogram is not the sum over codes.
func TestCheckBins(t *testing.T) {
	rel := catValRel(t, []string{"a", "a", "b"}, []float64{1, 2, 3})
	ix, err := rel.DiscreteIndex("category")
	if err != nil {
		t.Fatal(err)
	}
	a, err := columnAggs(nil, rel, ix, "category", "value")
	if err != nil {
		t.Fatal(err)
	}
	// Bins [0,1) [1,2) [2,4]: a holds [0 1 1], b [0 0 1].
	built := a.binned(ix, []float64{0, 1, 2, 4})
	if err := checkBins(built, a.nonNaN); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*binTable){
		"code":   func(b *binTable) { b.byCode[2]--; b.byCode[5]++ }, // a cell of a filed under b
		"bin":    func(b *binTable) { b.byCode[1]--; b.byCode[0]++ }, // a's cell moved to another bin
		"column": func(b *binTable) { b.hist[0]++ },
	} {
		b := &binTable{ix: built.ix, edges: built.edges, hist: append([]int(nil), built.hist...),
			byCode: append([]uint32(nil), built.byCode...)}
		mutate(b)
		if err := checkBins(b, a.nonNaN); err == nil {
			t.Errorf("%s: an inconsistent table passed the check", name)
		}
	}
}
