package estimator

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"privateclean/internal/privacy"
	"privateclean/internal/relation"
)

// benchBinRel is a released-looking relation of rows rows: a 50-value
// discrete attribute "group" and numeric columns "x" and "y", each a value
// uniform on [0, 100) plus Laplace(2) noise with a NaN cell in every 100,
// and the metadata releasing both with 64 bins.
func benchBinRel(b *testing.B, rows int) (*relation.Relation, *privacy.ViewMeta) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	groups := make([]string, rows)
	xs, ys := make([]float64, rows), make([]float64, rows)
	noisy := func(i int) float64 {
		if i%100 == 99 {
			return math.NaN()
		}
		e := rng.ExpFloat64() * 2
		if rng.Intn(2) == 0 {
			e = -e
		}
		return rng.Float64()*100 + e
	}
	for i := range groups {
		groups[i] = fmt.Sprintf("g%02d", rng.Intn(50))
		xs[i], ys[i] = noisy(i), noisy(i+1)
	}
	schema := relation.MustSchema(
		relation.Column{Name: "group", Kind: relation.Discrete},
		relation.Column{Name: "x", Kind: relation.Numeric},
		relation.Column{Name: "y", Kind: relation.Numeric},
	)
	rel, err := relation.FromColumns(schema, map[string][]float64{"x": xs, "y": ys}, map[string][]string{"group": groups})
	if err != nil {
		b.Fatal(err)
	}
	nm := privacy.NumericMeta{Lo: 0, Delta: 100, B: 2, Bins: 64}
	return rel, &privacy.ViewMeta{Numeric: map[string]privacy.NumericMeta{"x": nm, "y": nm}}
}

// binSink keeps each benchmarked build's result live.
var binSink any

// BenchmarkBinTables times a cold build of each resident bin table over
// 500k rows and 64 released bins: the quantile table (y's bins per code of
// the 50-value attribute), the GROUP BY bin(x) count table (x's bins
// alone) and the binned sum/avg moments (y's moments per bin of x).
func BenchmarkBinTables(b *testing.B) {
	rel, meta := benchBinRel(b, 500_000)
	ix, err := rel.DiscreteIndex("group")
	if err != nil {
		b.Fatal(err)
	}
	xs, ys := rel.MustNumeric("x"), rel.MustNumeric("y")
	var c *ChannelCache // no cache: every call builds
	lx, ly := c.layout("x", meta.Numeric["x"]), c.layout("y", meta.Numeric["y"])
	b.Run("quantile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			binSink = (&codeAggs{col: ys}).binned(ix, ly)
		}
	})
	b.Run("count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			binSink = (&codeAggs{col: xs}).binned(nil, lx)
		}
	})
	b.Run("moments", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			binSink = buildBinMoments(lx, xs, ys)
		}
	})
}

// BenchmarkCollectStatistics drains a 100k-row relation in default
// windows through a collector binning both numeric columns with their
// released layouts, as 'privateclean stats -meta' does.
func BenchmarkCollectStatistics(b *testing.B) {
	rel, meta := benchBinRel(b, 100_000)
	opts := CollectOpts{BinEdges: map[string][]float64{
		"x": meta.Numeric["x"].BinEdges(),
		"y": meta.Numeric["y"].BinEdges(),
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if binSink, err = CollectStatisticsWith(relation.NewSliceIterator(rel, relation.DefaultWindow), opts); err != nil {
			b.Fatal(err)
		}
	}
}
