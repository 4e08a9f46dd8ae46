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
// match-none, single code, table): counts, per-code sum folds, and bitsets.
func TestVectorizedMatchesNaive(t *testing.T) {
	rel := vectorRel(t, 997) // odd size: exercises the partial last bitset word
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
		b := bitsFromSelection(ix.Codes, sel)
		if b.ones != wantCount {
			t.Errorf("%s: bitset ones = %d, want %d", pred, b.ones, wantCount)
		}
		for i := 0; i < rel.NumRows(); i++ {
			want := pred.Match == nil || pred.Match(rel.MustDiscrete("cat")[i])
			if b.get(i) != want {
				t.Fatalf("%s: bit %d = %v, want %v", pred, i, b.get(i), want)
			}
		}
	}
}

func TestConjBitsMatchesNaive(t *testing.T) {
	rel := vectorRel(t, 500)
	preds := []Predicate{In("cat", "v01", "v02", "v03", "v04", "v05", "v06"), Eq("other", "g1")}
	b, err := conjBits(rel, preds)
	if err != nil {
		t.Fatal(err)
	}
	cat := rel.MustDiscrete("cat")
	other := rel.MustDiscrete("other")
	want := 0
	for i := 0; i < rel.NumRows(); i++ {
		m := preds[0].Match(cat[i]) && preds[1].Match(other[i])
		if m {
			want++
		}
		if b.get(i) != m {
			t.Fatalf("row %d: intersected bit = %v, want %v", i, b.get(i), m)
		}
	}
	if b.ones != want {
		t.Fatalf("intersection ones = %d, want %d", b.ones, want)
	}
}
