package estimator

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

// matchedValues is the per-row reference for every estimator that reads the
// matched cells: the non-NaN agg cells of the rows satisfying pred (all rows
// when pred.Match is nil), in row order, testing each row's string.
func matchedValues(rel *relation.Relation, agg string, pred Predicate) ([]float64, error) {
	col, err := rel.Numeric(agg)
	if err != nil {
		return nil, err
	}
	m, err := naiveMatch(rel, pred)
	if err != nil {
		return nil, err
	}
	var out []float64
	for i, x := range col {
		if m[i] && !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out, nil
}

// twoPassMoments is the reference the per-code moment fold is held to: the
// mean in one pass, then the second and fourth central moments about it.
func twoPassMoments(vals []float64) (n, m2, m4 float64) {
	mean, err := stats.Mean(vals)
	if err != nil {
		return 0, 0, 0
	}
	for _, x := range vals {
		d := x - mean
		m2 += d * d
		m4 += d * d * d * d
	}
	n = float64(len(vals))
	return n, m2 / n, m4 / n
}

// momentsRel builds a relation whose "cat" column has nine codes, v0..v8,
// and whose "x" column is offset + unit normal noise scaled by the code, so
// every code has its own mean and spread. v7's cells are all NaN and one
// cell in eleven of the others is NaN.
func momentsRel(t testing.TB, rows int, offset float64) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(rows)))
	cat := make([]string, rows)
	x := make([]float64, rows)
	for i := range cat {
		c := rng.Intn(9)
		cat[i] = fmt.Sprintf("v%d", c)
		switch {
		case c == 7 || rng.Intn(11) == 0:
			x[i] = math.NaN()
		default:
			x[i] = offset + float64(c) + rng.NormFloat64()*float64(1+c%3)
		}
	}
	schema := relation.MustSchema(
		relation.Column{Name: "cat", Kind: relation.Discrete},
		relation.Column{Name: "x", Kind: relation.Numeric},
	)
	rel, err := relation.FromColumns(schema, map[string][]float64{"x": x}, map[string][]string{"cat": cat})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestCodeMomentsMatchTwoPass holds the per-code moment fold to the
// two-pass per-row reference. Folding central sums about each code's mean
// stays accurate where raw power sums would not: a column offset by 1e6
// with unit spread has Σx² near 1e15 per thousand rows, so a raw-sum
// variance would keep no correct digit, while the fold agrees with the
// reference to 1e-9 relative. A cached table (every code built) and a
// one-shot one (only the selected codes) fold to the same bits.
func TestCodeMomentsMatchTwoPass(t *testing.T) {
	preds := []Predicate{
		{},                                // every row, one code
		Eq("cat", "v3"),                   // a single selected code
		Eq("cat", "v7"),                   // a code whose cells are all NaN
		In("cat", "v1", "v7"),             // a NaN-only code among the matched
		In("cat", "v0", "v2", "v5", "v8"), // several codes, several means
		Not(Eq("cat", "v4")),              // a Match-walked selection
	}
	for _, offset := range []float64{0, 1e6} {
		rel := momentsRel(t, 4000, offset)
		tol := 1e-12
		if offset != 0 {
			tol = 1e-9
		}
		cache := NewChannelCache()
		for _, pred := range preds {
			vals, err := matchedValues(rel, "x", pred)
			if err != nil {
				t.Fatal(err)
			}
			wn, w2, w4 := twoPassMoments(vals)
			n, m2, m4, err := matchedMoments(nil, rel, "x", pred)
			if err != nil {
				t.Fatal(err)
			}
			if n != wn {
				t.Fatalf("offset %g, %s: n = %v, want %v", offset, pred, n, wn)
			}
			for _, c := range []struct {
				name      string
				got, want float64
			}{{"m2", m2, w2}, {"m4", m4, w4}} {
				if math.Abs(c.got-c.want) > tol*math.Abs(c.want) {
					t.Errorf("offset %g, %s: %s = %v, want %v (relative error %.2g)",
						offset, pred, c.name, c.got, c.want, math.Abs(c.got-c.want)/math.Abs(c.want))
				}
			}
			cn, c2, c4, err := matchedMoments(cache, rel, "x", pred)
			if err != nil {
				t.Fatal(err)
			}
			if cn != n || math.Float64bits(c2) != math.Float64bits(m2) || math.Float64bits(c4) != math.Float64bits(m4) {
				t.Fatalf("offset %g, %s: cached fold (%v, %v, %v) != one-shot (%v, %v, %v)", offset, pred, cn, c2, c4, n, m2, m4)
			}
			if pred.Match == nil {
				// One code: its central sum is stats.Variance's, bit for bit.
				if v, _ := stats.Variance(vals); math.Float64bits(m2) != math.Float64bits(v) {
					t.Fatalf("offset %g: whole-column m2 = %v, stats.Variance = %v", offset, m2, v)
				}
			}
		}
	}
}
