package query

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"privateclean/internal/estimator"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

// sqlAvg is SQL's avg(v) over the rows match selects: the mean of their
// non-NULL (non-NaN) cells, and false when none is left (SQL's NULL).
func sqlAvg(v []float64, match func(i int) bool) (float64, bool) {
	sum, n := 0.0, 0
	for i, x := range v {
		if match(i) && !math.IsNaN(x) {
			sum += x
			n++
		}
	}
	return sum / float64(n), n > 0
}

// rowMatch evaluates compiled predicates row by row: a row matches when
// its value of each predicate's attribute satisfies it.
func rowMatch(rel *relation.Relation, preds []estimator.Predicate) func(i int) bool {
	cols := make([][]string, len(preds))
	for k, p := range preds {
		cols[k] = rel.MustDiscrete(p.Attr)
	}
	return func(i int) bool {
		for k, p := range preds {
			if !p.Match(cols[k][i]) {
				return false
			}
		}
		return true
	}
}

// condOn draws a condition on attr from randomCond's forms.
func condOn(rng *rand.Rand, attr string) string {
	for {
		if c := randomCond(rng); strings.HasPrefix(c, attr+" ") {
			return c
		}
	}
}

// avgOracleQueries draws avg queries of every shape: no WHERE, one
// condition, a two-attribute AND, GROUP BY and GROUP BY bin.
func avgOracleQueries(rng *rand.Rand) []string {
	d := []string{"d1", "d2"}[rng.Intn(2)]
	return []string{
		"SELECT avg(v) FROM R",
		"SELECT avg(v) FROM R WHERE " + condOn(rng, d),
		"SELECT avg(v) FROM R WHERE " + condOn(rng, "d1") + " AND " + condOn(rng, "d2"),
		"SELECT avg(v) FROM R GROUP BY " + d,
		"SELECT avg(v) FROM R GROUP BY bin(v)",
	}
}

// oracleAnswers is what SQL returns for q over rel: one average per label
// ("" for a scalar, the group value, or the bin's lower edge), NULLs left
// out.
func oracleAnswers(t *testing.T, s *sources, rel *relation.Relation, q *Query) map[string]float64 {
	t.Helper()
	v := rel.MustNumeric("v")
	out := map[string]float64{}
	put := func(label string, match func(int) bool) {
		if avg, ok := sqlAvg(v, match); ok {
			out[label] = avg
		}
	}
	switch {
	case q.GroupBin:
		edges := s.meta.Numeric["v"].BinEdges()
		for k := 0; k+1 < len(edges); k++ {
			k := k
			put(fmt.Sprint(edges[k]), func(i int) bool {
				j := sort.SearchFloat64s(edges, v[i])
				if j == len(edges) || edges[j] != v[i] {
					j--
				}
				return min(max(j, 0), len(edges)-2) == k
			})
		}
	case q.GroupBy != "":
		col := rel.MustDiscrete(q.GroupBy)
		dom, _ := rel.Domain(q.GroupBy)
		for _, g := range dom {
			put(g, func(i int) bool { return col[i] == g })
		}
	default:
		preds, err := CompileConjunction(q.Conds(), nil)
		if err != nil {
			t.Fatal(err)
		}
		put("", rowMatch(rel, preds))
	}
	return out
}

// answers labels an answer's values as oracleAnswers does.
func answers(a *Answer) map[string]float64 {
	out := map[string]float64{}
	switch a.Shape {
	case ShapeBin:
		for _, b := range a.Bins {
			out[fmt.Sprint(b.Lo)] = b.Est.Value
		}
	case ShapeGroup:
		for g, e := range a.Groups {
			out[g] = e.Value
		}
	default:
		out[""] = a.Estimate.Value
	}
	return out
}

// TestAvgSkipsNullsSQLOracle holds the nominal estimator's avg to a
// row-loop SQL oracle on FuzzQueryAcrossSources' views, whose v column has
// NaN cells, for every avg shape and from every source that answers it:
// the same averages up to summation order, and an error exactly where SQL
// returns only NULLs. Binned GROUP BY avg applies no correction, so its
// corrected answer is the nominal one.
func TestAvgSkipsNullsSQLOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomSources(t, rng, 1+rng.Intn(120), true, true)
		rel := s.in.Rel
		for _, sql := range avgOracleQueries(rng) {
			q, err := Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleAnswers(t, s, rel, q)
			est := &estimator.Estimator{Meta: s.meta}
			if !q.GroupBin {
				est = est.Nominal()
			}
			for i, src := range s.all() {
				if q.GroupBin && src.Stats != nil {
					continue // statistics record no per-bin moments
				}
				a, err := Run(telemetry.Noop(), est, src, q, nil)
				if len(want) == 0 {
					if err == nil {
						t.Fatalf("seed %d %s %s: SQL returns NULL, got %v", seed, sourceNames[i], sql, answers(a))
					}
					continue
				}
				if err != nil {
					t.Fatalf("seed %d %s %s: %v, SQL returns %v", seed, sourceNames[i], sql, err, want)
				}
				got := answers(a)
				if len(got) != len(want) {
					t.Fatalf("seed %d %s %s: %v, SQL returns %v", seed, sourceNames[i], sql, got, want)
				}
				for k, w := range want {
					if g, ok := got[k]; !ok || math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
						t.Fatalf("seed %d %s %s: %q = %v, SQL returns %v", seed, sourceNames[i], sql, k, g, w)
					}
				}
			}
		}
	}
}
