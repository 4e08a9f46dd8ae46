package estimator

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"privateclean/internal/relation"
)

// vectorRel builds a relation whose "cat" domain is large enough to exercise
// every selection representation, with NaN holes in the aggregate.
func vectorRel(t testing.TB, rows int) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	cat := make([]string, rows)
	other := make([]string, rows)
	x := make([]float64, rows)
	for i := range cat {
		cat[i] = fmt.Sprintf("v%02d", rng.Intn(20))
		other[i] = fmt.Sprintf("g%d", rng.Intn(3))
		if rng.Intn(11) == 0 {
			x[i] = math.NaN()
		} else {
			x[i] = rng.NormFloat64() * 10
		}
	}
	schema := relation.MustSchema(
		relation.Column{Name: "cat", Kind: relation.Discrete},
		relation.Column{Name: "other", Kind: relation.Discrete},
		relation.Column{Name: "x", Kind: relation.Numeric},
	)
	rel, err := relation.FromColumns(schema,
		map[string][]float64{"x": x},
		map[string][]string{"cat": cat, "other": other})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// naiveEval is the reference implementation: per-row string evaluation,
// per-value sums accumulated in row order with NaN cells skipped, folded
// into the matched and complement sums in sorted-value order.
func naiveEval(rel *relation.Relation, pred Predicate, agg string) (count int, matched, complement float64) {
	col := rel.MustDiscrete(pred.Attr)
	vals := rel.MustNumeric(agg)
	sums := map[string]float64{}
	for i, v := range col {
		if pred.Match == nil || pred.Match(v) {
			count++
		}
		if x := vals[i]; !math.IsNaN(x) {
			sums[v] += x
		}
	}
	domain, _ := rel.Domain(pred.Attr) // sorted
	for _, v := range domain {
		if pred.Match == nil || pred.Match(v) {
			matched += sums[v]
		} else {
			complement += sums[v]
		}
	}
	return count, matched, complement
}

// TestVectorizedMatchesNaive pins the compiled selection to the reference
// semantics bit for bit, across every selection representation (match-all,
// match-none, single code, table): counts and per-code sum folds.
func TestVectorizedMatchesNaive(t *testing.T) {
	rel := vectorRel(t, 997)
	preds := []Predicate{
		{Attr: "cat"}, // nil Match: match-all
		Eq("cat", "v03"),
		Eq("cat", "no-such-value"),
		In("cat", "v01", "v05", "v09"),
		In("cat", "v00", "v02", "v04", "v06", "v08", "v10", "v12"),
		Not(Eq("cat", "v03")),
	}
	ix, a, err := perCode(nil, rel, "cat", "x")
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range preds {
		wantCount, wantM, wantC := naiveEval(rel, pred, "x")
		sel := compileSelection(ix, pred)
		// The O(domain) count from materialized dictionary counts and the
		// fallback over a count-less index must agree with the scan.
		if got := countSelection(ix, sel); got != wantCount {
			t.Errorf("%s: countSelection = %d, want %d", pred, got, wantCount)
		}
		bare := &relation.DiscreteIndex{Domain: ix.Domain, Codes: ix.Codes}
		if got := countSelection(bare, sel); got != wantCount {
			t.Errorf("%s: countSelection (no counts) = %d, want %d", pred, got, wantCount)
		}
		gotM, gotC := a.fold(sel)
		if math.Float64bits(gotM) != math.Float64bits(wantM) || math.Float64bits(gotC) != math.Float64bits(wantC) {
			t.Errorf("%s: fold = (%v, %v), want (%v, %v)", pred, gotM, gotC, wantM, wantC)
		}
	}
}

// TestConjJointMatchesNaive pins the joint table to a per-row reference:
// one cell per non-empty (cat, other) code tuple, in ascending tuple order,
// holding the rows' count and the row-order non-NaN moments of x. 500 rows
// take the dense build (20 x 3 codes), 40 rows the sparse one, and the
// sparse build of the 500 rows must equal the dense.
func TestConjJointMatchesNaive(t *testing.T) {
	for _, rows := range []int{500, 40} {
		rel := vectorRel(t, rows)
		var ixs []*relation.DiscreteIndex
		for _, attr := range []string{"cat", "other"} {
			ix, err := rel.DiscreteIndex(attr)
			if err != nil {
				t.Fatal(err)
			}
			ixs = append(ixs, ix)
		}
		col := rel.MustNumeric("x")
		type cell struct{ n, sum, sumSq, nonNaN float64 }
		want := map[[2]uint32]*cell{}
		for r, x := range col {
			k := [2]uint32{ixs[0].Codes[r], ixs[1].Codes[r]}
			c := want[k]
			if c == nil {
				c = &cell{}
				want[k] = c
			}
			c.n++
			if !math.IsNaN(x) {
				c.sum += x
				c.sumSq += x * x
				c.nonNaN++
			}
		}
		tables := map[string]*jointTable{"built": buildJoint(ixs, col), "sparse": buildSparseJoint(ixs, col)}
		for name, tab := range tables {
			if len(tab.n) != len(want) {
				t.Fatalf("%d rows, %s: %d cells, want %d", rows, name, len(tab.n), len(want))
			}
			for j := range tab.n {
				k := [2]uint32{tab.codes[0][j], tab.codes[1][j]}
				if j > 0 && (k[0] < tab.codes[0][j-1] || k[0] == tab.codes[0][j-1] && k[1] <= tab.codes[1][j-1]) {
					t.Fatalf("%d rows, %s: cell %d %v out of tuple order", rows, name, j, k)
				}
				w := want[k]
				got := cell{tab.n[j], tab.x.sums[j], tab.x.sumSqs[j], tab.x.nonNaN[j]}
				if w == nil || got != *w {
					t.Fatalf("%d rows, %s: cell %v = %+v, want %+v", rows, name, k, got, w)
				}
			}
		}
	}
}
