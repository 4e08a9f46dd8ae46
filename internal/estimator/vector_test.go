package estimator

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"privateclean/internal/colstore"
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
	tbl, err := resident{rel}.valueTable(nil, "cat", "x")
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range preds {
		wantCount, wantM, wantC := naiveEval(rel, pred, "x")
		sel := compileSelection(tbl.ix, pred)
		// The O(domain) count from materialized dictionary counts must
		// agree with the scan.
		if got := tbl.count(sel); got != float64(wantCount) {
			t.Errorf("%s: count = %v, want %d", pred, got, wantCount)
		}
		gotM, gotC := tbl.fold(sel)
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

// selectionTwins returns cat's dictionary from rel itself (the index a CSV
// load builds) and from rel written to a .pcol and decoded (the index a
// colstore load adopts).
func selectionTwins(t testing.TB, rel *relation.Relation) map[string]*relation.DiscreteIndex {
	t.Helper()
	var buf bytes.Buffer
	if _, err := colstore.Write(&buf, rel); err != nil {
		t.Fatal(err)
	}
	colRel, err := colstore.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*relation.DiscreteIndex{}
	for name, r := range map[string]*relation.Relation{"in": rel, "col": colRel} {
		if out[name], err = r.DiscreteIndex("cat"); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkValueSetSelection requires the value-set selection of pred (an Eq or
// In) to equal the selection compiled by calling Match on every domain
// value, representation included.
func checkValueSetSelection(t testing.TB, name string, ix *relation.DiscreteIndex, pred Predicate) {
	t.Helper()
	if pred.values == nil {
		t.Fatalf("%s: %s carries no value set", name, pred)
	}
	walk := pred
	walk.values = nil
	got, want := compileSelection(ix, pred), compileSelection(ix, walk)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s, domain %q, %s: value-set selection %+v, Match walk %+v", name, ix.Domain, pred, got, want)
	}
}

// TestValueSetSelectionMatchesWalk pins the binary-searched Eq/In
// selection to the Match-over-domain one over an in-memory and a
// colstore-loaded index: absent and duplicate values, one-code, all-code
// and no-code matches, and an empty domain.
func TestValueSetSelectionMatchesWalk(t *testing.T) {
	rel := vectorRel(t, 400)
	dom, _ := rel.Domain("cat")
	preds := []Predicate{
		Eq("cat", "v03"),
		Eq("cat", "no-such-value"),
		Eq("cat", ""),
		In("cat"),
		In("cat", "absent", "v03", "zz"),
		In("cat", "v01", "v01", "v05", "v05", "v01"),
		In("cat", "v07", "v07"),
		In("cat", "v07", "nope"),
		In("cat", dom...),
		In("cat", append([]string{"a", "v99"}, dom...)...),
		In("cat", dom[:len(dom)-1]...),
	}
	for name, ix := range selectionTwins(t, rel) {
		for _, pred := range preds {
			checkValueSetSelection(t, name, ix, pred)
		}
	}
	empty, err := relation.FromColumns(relation.MustSchema(relation.Column{Name: "cat", Kind: relation.Discrete}),
		nil, map[string][]string{"cat": {}})
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range selectionTwins(t, empty) {
		if ix.N() != 0 {
			t.Fatalf("%s: empty relation has domain %q", name, ix.Domain)
		}
		for _, pred := range []Predicate{Eq("cat", "a"), In("cat"), In("cat", "a", "b")} {
			checkValueSetSelection(t, name, ix, pred)
		}
	}
}

// FuzzSelectionValueSet drives checkValueSetSelection from a fuzzed column
// (comma-separated cells; "" is the empty relation) and a fuzzed value list
// (comma-separated, duplicates and absent values allowed), as an In and as
// an Eq of each value.
func FuzzSelectionValueSet(f *testing.F) {
	f.Add("a,b,c,a", "a,c")
	f.Add("a,b,c", "b,b,zz")
	f.Add("x", "x")
	f.Add("", "a")
	f.Add("a,b", "")
	f.Fuzz(func(t *testing.T, cells, values string) {
		col := []string{}
		if cells != "" {
			col = strings.Split(cells, ",")
		}
		rel, err := relation.FromColumns(relation.MustSchema(relation.Column{Name: "cat", Kind: relation.Discrete}),
			nil, map[string][]string{"cat": col})
		if err != nil {
			t.Skip(err)
		}
		vals := strings.Split(values, ",")
		for name, ix := range selectionTwins(t, rel) {
			checkValueSetSelection(t, name, ix, In("cat", vals...))
			for _, v := range vals {
				checkValueSetSelection(t, name, ix, Eq("cat", v))
			}
		}
	})
}
