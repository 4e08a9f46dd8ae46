package query

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"privateclean/internal/colstore"
	"privateclean/internal/estimator"
	"privateclean/internal/faults"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

var sourcesSchema = relation.MustSchema(
	relation.Column{Name: "d1", Kind: relation.Discrete},
	relation.Column{Name: "d2", Kind: relation.Discrete},
	relation.Column{Name: "v", Kind: relation.Numeric},
)

// sources is one private view as the three query inputs: the resident
// relation (-in), its .pcol round trip (-col), and sufficient statistics
// (-stats).
type sources struct {
	meta           *privacy.ViewMeta
	in, col, stats Source
}

// names labels the sources in failure messages.
var sourceNames = [3]string{"-in", "-col", "-stats"}

func (s *sources) all() [3]Source { return [3]Source{s.in, s.col, s.stats} }

// randomSources builds a small random view over sourcesSchema. withHists
// and withJoint choose what the statistics record: the released bin edges
// of v (stats -meta) and the (d1, d2) joint (stats -conj d1,d2).
func randomSources(t testing.TB, rng *rand.Rand, rows int, withHists, withJoint bool) *sources {
	t.Helper()
	dom1, dom2 := []string{"a", "b", "c"}, []string{"x", "y"}
	d1, d2 := make([]string, rows), make([]string, rows)
	vals := make([]float64, rows)
	for i := range vals {
		d1[i] = dom1[rng.Intn(len(dom1))]
		d2[i] = dom2[rng.Intn(len(dom2))]
		vals[i] = math.Round(rng.Float64()*200) / 10
		if rng.Intn(16) == 0 {
			vals[i] = math.NaN()
		}
	}
	rel, err := relation.FromColumns(sourcesSchema,
		map[string][]float64{"v": vals}, map[string][]string{"d1": d1, "d2": d2})
	if err != nil {
		t.Fatal(err)
	}
	meta := &privacy.ViewMeta{
		Discrete: map[string]privacy.DiscreteMeta{
			"d1": {Name: "d1", P: 0.1 + 0.4*rng.Float64(), Domain: dom1},
			"d2": {Name: "d2", P: 0.1 + 0.4*rng.Float64(), Domain: dom2},
		},
		Numeric: map[string]privacy.NumericMeta{
			"v": {Name: "v", B: 0.5, Lo: 0, Delta: 20, Bins: 1 + rng.Intn(6)},
		},
		Rows: rows,
	}

	path := filepath.Join(t.TempDir(), "view.pcol")
	if _, err := colstore.WriteFile(path, rel); err != nil {
		t.Fatal(err)
	}
	view, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { view.Close() })

	var opts estimator.CollectOpts
	if withHists {
		opts.BinEdges = map[string][]float64{"v": meta.Numeric["v"].BinEdges()}
	}
	if withJoint {
		opts.Joints = [][2]string{{"d1", "d2"}}
	}
	st, err := estimator.CollectStatisticsWith(relation.NewSliceIterator(rel, 1+rng.Intn(7)), opts)
	if err != nil {
		t.Fatal(err)
	}
	return &sources{meta: meta, in: Source{Rel: rel}, col: Source{Rel: view.Relation()}, stats: Source{Stats: st}}
}

// run answers sql from src with a fresh estimator.
func (s *sources) run(t testing.TB, src Source, sql string) (*Answer, error) {
	t.Helper()
	q, err := Parse(sql)
	if err != nil {
		t.Fatalf("generated query %q does not parse: %v", sql, err)
	}
	return Run(telemetry.Noop(), &estimator.Estimator{Meta: s.meta, Confidence: 0.95}, src, q, nil)
}

// randomQuery draws a query of the grammar over sourcesSchema: any
// aggregate, under no WHERE, one condition, a conjunction, GROUP BY, or
// GROUP BY bin. Conditions occasionally name an unknown column or UDF.
func randomQuery(rng *rand.Rand) string {
	aggs := []string{"count(1)", "sum(v)", "avg(v)", "median(v)", "quantile(v, 0.25)", "quantile(v, 0.9)", "var(v)", "std(v)"}
	sql := "SELECT " + aggs[rng.Intn(len(aggs))] + " FROM R"
	switch rng.Intn(5) {
	case 1:
		sql += " WHERE " + randomCond(rng)
	case 2:
		sql += " WHERE " + randomCond(rng)
		for n := 1 + rng.Intn(2); n > 0; n-- {
			sql += " AND " + randomCond(rng)
		}
	case 3:
		sql += " GROUP BY " + []string{"d1", "d2"}[rng.Intn(2)]
	case 4:
		sql += " GROUP BY bin(v)"
	}
	return sql
}

func randomCond(rng *rand.Rand) string {
	attr := "d1"
	values := []string{"a", "b", "c", "zz"}
	if rng.Intn(2) == 0 {
		attr, values = "d2", []string{"x", "y", "zz"}
	}
	switch rng.Intn(20) {
	case 0:
		attr = "nope"
	case 1:
		return "nosuch(" + attr + ")"
	}
	val := func() string { return "'" + values[rng.Intn(len(values))] + "'" }
	switch rng.Intn(4) {
	case 0:
		return attr + " = " + val()
	case 1:
		return attr + " != " + val()
	case 2:
		return attr + " IN (" + val() + ", " + val() + ")"
	default:
		return attr + " NOT IN (" + val() + ")"
	}
}

// labelled is one estimate of an answer: the scalar, a group, or a bin.
type labelled struct {
	label string
	est   estimator.Estimate
}

// flatten lists an answer's estimates in a fixed order: groups by key,
// bins in bin order.
func flatten(a *Answer) []labelled {
	switch a.Shape {
	case ShapeBin:
		out := make([]labelled, len(a.Bins))
		for i, b := range a.Bins {
			out[i] = labelled{b.Label, b.Est}
		}
		return out
	case ShapeGroup:
		keys := make([]string, 0, len(a.Groups))
		for k := range a.Groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make([]labelled, len(keys))
		for i, k := range keys {
			out[i] = labelled{k, a.Groups[k]}
		}
		return out
	}
	return []labelled{{"", a.Estimate}}
}

// directBits renders an answer's Direct values exactly, or their error.
func directBits(a *Answer) string {
	switch a.Shape {
	case ShapeBin:
		return ""
	case ShapeGroup:
		d, err := a.GroupDirect()
		var sb strings.Builder
		for _, l := range flatten(a) {
			fmt.Fprintf(&sb, "%s:%x ", l.label, math.Float64bits(d[l.label]))
		}
		return fmt.Sprintf("%s err=%v", sb.String(), err)
	}
	d, err := a.Direct()
	return fmt.Sprintf("%x err=%v", math.Float64bits(d), err)
}

// sameEstimates compares two answers estimate by estimate: the value and
// the interval bit for bit when exactValue and exactCI are set, otherwise
// as sameInterval allows.
func sameEstimates(a, b *Answer, exactValue, exactCI bool) error {
	la, lb := flatten(a), flatten(b)
	if a.Shape != b.Shape || a.Total != b.Total || len(la) != len(lb) {
		return fmt.Errorf("shape %d/%d, total %t/%t, %d/%d estimates", a.Shape, b.Shape, a.Total, b.Total, len(la), len(lb))
	}
	for i := range la {
		x, y := la[i].est, lb[i].est
		switch {
		case la[i].label != lb[i].label:
			return fmt.Errorf("label %q vs %q", la[i].label, lb[i].label)
		case exactValue && math.Float64bits(x.Value) != math.Float64bits(y.Value):
			return fmt.Errorf("%q: value %x vs %x", la[i].label, math.Float64bits(x.Value), math.Float64bits(y.Value))
		case exactCI && math.Float64bits(x.CI) != math.Float64bits(y.CI):
			return fmt.Errorf("%q: ci %x vs %x", la[i].label, math.Float64bits(x.CI), math.Float64bits(y.CI))
		case !sameInterval(x, y):
			return fmt.Errorf("%q: %s vs %s", la[i].label, x, y)
		}
	}
	return nil
}

// sameInterval reports whether two estimates of one value render alike,
// counting two intervals that are both within float cancellation noise of
// zero as alike: when every row carries the same weight or value the
// variance is zero, and what is left of it is rounding residue that
// depends on the summation order.
func sameInterval(x, y estimator.Estimate) bool {
	noise := 1e-6 * math.Max(1, math.Abs(x.Value))
	return x.String() == y.String() ||
		fmt.Sprintf("%.6g", x.Value) == fmt.Sprintf("%.6g", y.Value) && x.CI < noise && y.CI < noise
}

// shapeOn is the shape a source kind dispatches q under: statistics answer
// a conjunction over one attribute as a marginal predicate.
func shapeOn(q *Query, kind int) Shape {
	switch {
	case len(q.AndWhere) > 0:
		if kind == statistics {
			attrs := map[string]bool{}
			for _, c := range q.Conds() {
				attrs[c.Attr] = true
			}
			if len(attrs) == 1 {
				return ShapeScalar
			}
		}
		return ShapeConj
	case q.GroupBin:
		return ShapeBin
	case q.GroupBy != "":
		return ShapeGroup
	}
	return ShapeScalar
}

// checkAcrossSources answers one query from every source and checks the
// cross-source contract.
func checkAcrossSources(t *testing.T, s *sources, sql string) {
	t.Helper()
	q, err := Parse(sql)
	if err != nil {
		t.Fatalf("generated query %q does not parse: %v", sql, err)
	}
	var ans [3]*Answer
	var errs [3]error
	for i, src := range s.all() {
		ans[i], errs[i] = s.run(t, src, sql)
		if errs[i] != nil && faults.Kind(errs[i]) == nil {
			t.Fatalf("%s %s: unclassified error %v", sourceNames[i], sql, errs[i])
		}
		kind := src.kind()
		if table[key{shapeOn(q, kind), q.Agg}][kind] == nil && !errors.Is(errs[i], faults.ErrBadQuery) {
			t.Fatalf("%s %s: the table leaves this unsupported, got %v, want a bad-query refusal", sourceNames[i], sql, errs[i])
		}
		if errs[i] == nil && ans[i].Shape != shapeOn(q, kind) {
			t.Fatalf("%s %s: answered as shape %d, want %d", sourceNames[i], sql, ans[i].Shape, shapeOn(q, kind))
		}
	}
	// A count fails only on the query itself (an unknown column or UDF), so
	// either every source answers it or none does.
	if q.Agg == AggCount && ((errs[0] == nil) != (errs[2] == nil)) {
		t.Fatalf("%s: -in error %v, -stats error %v", sql, errs[0], errs[2])
	}

	// -in and -col: the same bits, Direct included, or the same error.
	if (errs[0] == nil) != (errs[1] == nil) || errs[0] != nil && errs[0].Error() != errs[1].Error() {
		t.Fatalf("%s: -in error %v, -col error %v", sql, errs[0], errs[1])
	}
	if errs[0] == nil {
		if err := sameEstimates(ans[0], ans[1], true, true); err != nil {
			t.Fatalf("%s: -in and -col differ: %v", sql, err)
		}
		if a, b := directBits(ans[0]), directBits(ans[1]); a != b {
			t.Fatalf("%s: -in and -col Direct differ: %s vs %s", sql, a, b)
		}
	}

	// Resident and statistics, on count/sum/avg, median/quantile and binned
	// GROUP BY count: the same error kind, or estimates that match
	//   - bit for bit in every value, and in counts' intervals: both sources
	//     answer from one per-value table through one body per aggregate;
	//   - bit for bit in value and interval for median and quantile, which
	//     both sources answer from one bin table under the released edges
	//     through one body;
	//   - bit for bit, Direct included, for conjunctions over two attributes
	//     (statistics answer one attribute as a marginal), which fold the
	//     same joint cells in the same order through one function;
	//   - in rendering (sameInterval) for sum and avg intervals, which use
	//     the column variance: two-pass over resident rows, one-pass moments
	//     over statistics.
	if q.Agg == AggVar || q.Agg == AggStd || q.GroupBin && q.Agg != AggCount ||
		shapeOn(q, resident) != shapeOn(q, statistics) {
		return
	}
	if (errs[0] == nil) != (errs[2] == nil) || errs[0] != nil && faults.Kind(errs[0]) != faults.Kind(errs[2]) {
		t.Fatalf("%s: -in error %v, -stats error %v", sql, errs[0], errs[2])
	}
	if errs[0] != nil {
		return
	}
	exact := q.Agg == AggCount || q.Agg == AggMedian || q.Agg == AggQuantile || ans[0].Shape == ShapeConj
	if err := sameEstimates(ans[0], ans[2], true, exact); err != nil {
		t.Fatalf("%s: resident and statistics differ: %v", sql, err)
	}
	// Direct values are bit-identical on every source: the nominal
	// estimator folds the same per-value counts, sums and bin counts, and
	// the same joint cells, as the corrected values above, and its channel
	// leaves them uncorrected.
	if a, b := directBits(ans[0]), directBits(ans[2]); a != b {
		t.Fatalf("%s: resident Direct %s, statistics Direct %s", sql, a, b)
	}
}

// FuzzQueryAcrossSources answers random grammar queries over a small random
// view from the relation, its .pcol round trip, and statistics collected
// with the released bin edges and one joint, and holds the three to the
// executor's contract: -in and -col agree bit for bit (Direct included) or
// fail alike; resident and statistics agree on count/sum/avg (scalar,
// totals, GROUP BY), median/quantile and binned GROUP BY count, as
// checkAcrossSources details; combinations the dispatch table leaves unsupported are
// bad-query refusals on every source that lacks them; and no error escapes
// unclassified.
func FuzzQueryAcrossSources(f *testing.F) {
	f.Add(int64(1), uint8(40))
	f.Add(int64(2), uint8(1))
	f.Add(int64(3), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, rows uint8) {
		rng := rand.New(rand.NewSource(seed))
		s := randomSources(t, rng, 1+int(rows)%120, true, true)
		for i := 0; i < 16; i++ {
			checkAcrossSources(t, s, randomQuery(rng))
		}
	})
}

// matrixQueries are the representative queries of each row of README's
// "Aggregate support by input path" table, keyed by the row's first cell.
var matrixQueries = map[string][]string{
	"count / sum / avg, `GROUP BY`": {
		"SELECT count(1) FROM R WHERE d1 = 'a'",
		"SELECT sum(v) FROM R",
		"SELECT avg(v) FROM R WHERE d2 != 'x'",
		"SELECT avg(v) FROM R GROUP BY d1",
	},
	"median / quantile": {
		"SELECT median(v) FROM R",
		"SELECT quantile(v, 0.9) FROM R WHERE d1 = 'a'",
	},
	"`AND` conjunctions": {
		"SELECT count(1) FROM R WHERE d1 = 'a' AND d2 = 'x'",
		"SELECT avg(v) FROM R WHERE d1 IN ('a', 'b') AND d2 = 'y'",
	},
	"`GROUP BY bin(a)` count": {
		"SELECT count(1) FROM R GROUP BY bin(v)",
	},
	"`GROUP BY bin(a)` sum/avg": {
		"SELECT sum(v) FROM R GROUP BY bin(v)",
		"SELECT avg(v) FROM R GROUP BY bin(v)",
	},
	"var / std": {
		"SELECT var(v) FROM R",
		"SELECT std(v) FROM R WHERE d1 = 'b'",
	},
}

// readMatrix returns the rows of README's path-support table: the first
// cell, then one cell per input path.
func readMatrix(t *testing.T) [][]string {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows [][]string
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.Contains(line, "Aggregate support by input path"):
			in = true
		case in && strings.HasPrefix(line, "|"):
			cells := strings.Split(strings.Trim(line, "|"), "|")
			for i := range cells {
				cells[i] = strings.TrimSpace(cells[i])
			}
			rows = append(rows, cells)
		case in && len(rows) > 0:
			in = false
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 || strings.Join(rows[0][1:], " ") != "`-in` (CSV) `-col` (.pcol) `-stats`" {
		t.Fatalf("README path-support table not found or reshaped: %q", rows)
	}
	return rows[2:] // drop the header and its separator
}

// TestReadmeSupportMatrix holds README's "Aggregate support by input path"
// table to the executor: a ✓ cell answers; a — cell is a bad-query refusal
// pointing at -in/-col; "✓ with `stats -meta`" or "✓ with `stats -conj`"
// answers from statistics that carry the histograms or the joint, and
// without them fails with a hint naming that flag.
func TestReadmeSupportMatrix(t *testing.T) {
	full := randomSources(t, rand.New(rand.NewSource(7)), 200, true, true)
	bare := randomSources(t, rand.New(rand.NewSource(7)), 200, false, false)
	seen := map[string]bool{}
	for _, row := range readMatrix(t) {
		label := row[0]
		queries, ok := matrixQueries[label]
		if !ok {
			t.Errorf("README row %q has no representative queries in matrixQueries", label)
			continue
		}
		seen[label] = true
		for i, cell := range row[1:] {
			for _, sql := range queries {
				full.checkCell(t, i, cell, sql, bare)
			}
		}
	}
	for label := range matrixQueries {
		if !seen[label] {
			t.Errorf("matrixQueries row %q is not in README's table", label)
		}
	}
}

// checkCell checks one query against one README cell for source index i.
func (s *sources) checkCell(t *testing.T, i int, cell, sql string, bare *sources) {
	t.Helper()
	where := fmt.Sprintf("%s on %s (cell %q)", sql, sourceNames[i], cell)
	_, err := s.run(t, s.all()[i], sql)
	switch {
	case cell == "✓":
		if err != nil {
			t.Errorf("%s: want an answer, got %v", where, err)
		}
	case cell == "—":
		if !errors.Is(err, faults.ErrBadQuery) || !strings.Contains(err.Error(), "-in/-col") {
			t.Errorf("%s: want a bad-query refusal naming -in/-col, got %v", where, err)
		}
	case strings.HasPrefix(cell, "✓ with `stats "):
		flag := strings.Fields(strings.TrimPrefix(cell, "✓ with `stats "))[0]
		flag = strings.TrimSuffix(flag, "`")
		if err != nil {
			t.Errorf("%s: want an answer from statistics recording %s, got %v", where, flag, err)
		}
		_, err := bare.run(t, bare.all()[i], sql)
		if !errors.Is(err, faults.ErrBadQuery) || !strings.Contains(err.Error(), flag) {
			t.Errorf("%s: without %s want a bad-query error naming it, got %v", where, flag, err)
		}
	default:
		t.Errorf("%s: unrecognised README cell", where)
	}
}
