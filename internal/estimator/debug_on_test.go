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
	built := a.binned(ix, &binLayout{placement: newPlacement([]float64{0, 1, 2, 4})})
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

// TestCheckPlacement: the pcdebug assertion accepts the search's bin and
// panics on any other.
func TestCheckPlacement(t *testing.T) {
	edges := []float64{0, 1, 2, 4}
	debugCheckPlacement(edges, 2, 2)
	debugCheckPlacement(edges, 9, 2)
	defer func() {
		if recover() == nil {
			t.Error("a placement one bin off passed the check")
		}
	}()
	debugCheckPlacement(edges, 2, 1)
}

// TestCheckSelection: the pcdebug assertion accepts the code list an Eq or
// In compiles to and panics on one that differs from Match over the domain.
func TestCheckSelection(t *testing.T) {
	rel := catValRel(t, []string{"a", "b", "c", "d"}, []float64{1, 2, 3, 4})
	ix, err := rel.DiscreteIndex("category")
	if err != nil {
		t.Fatal(err)
	}
	pred := In("category", "b", "d", "zz")
	if sel := compileSelection(ix, pred); len(sel.codes) != 2 {
		t.Fatalf("selection %+v, want codes [1 3]", sel)
	}
	for _, codes := range [][]uint32{{1}, {1, 2}, {1, 3, 3}, {3, 1}, nil} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("codes %v passed the check for %s", codes, pred)
				}
			}()
			debugCheckSelection(ix.Domain, pred, codes)
		}()
	}
}
