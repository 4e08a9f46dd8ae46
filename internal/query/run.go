package query

import (
	"fmt"
	"time"

	"privateclean/internal/estimator"
	"privateclean/internal/faults"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

// Shape is the dispatch form of a query: which estimator family answers it.
type Shape int

const (
	// ShapeScalar is an aggregate under at most one WHERE condition.
	ShapeScalar Shape = iota
	// ShapeConj is an aggregate under an AND conjunction (Section 10).
	ShapeConj
	// ShapeGroup is GROUP BY attr.
	ShapeGroup
	// ShapeBin is GROUP BY bin(attr), over the released bin layout.
	ShapeBin
)

// Source is the data a query is answered from: a resident relation (a CSV
// load or a .pcol view) or sufficient statistics. When both are set the
// statistics answer.
type Source struct {
	Rel   *relation.Relation
	Stats *estimator.Statistics
}

// Source kinds index the columns of the dispatch table.
const (
	resident = iota
	statistics
)

func (s Source) kind() int {
	if s.Stats != nil {
		return statistics
	}
	return resident
}

// Answer is the PrivateClean estimate of one query. Shape says which field
// is set: Estimate for ShapeScalar and ShapeConj, Groups for ShapeGroup,
// Bins (in bin order) for ShapeBin.
type Answer struct {
	Shape    Shape
	Estimate estimator.Estimate
	Groups   map[string]estimator.Estimate
	Bins     []estimator.BinEstimate
	// Total marks a count, sum or avg without WHERE: a whole-column
	// aggregate, which needs no correction, so its estimate is also its
	// Direct value.
	Total bool

	c    call
	impl *impl
}

// Direct returns the nominal (Direct) value of a ShapeScalar or ShapeConj
// answer: the query run as-is on the private data, without correction. It
// re-runs the answer's own table row under the nominal estimator on
// demand, so callers that only report the estimate pay nothing for it.
// A total is its own Direct value; a GROUP BY answer has no scalar one
// (see GroupDirect) and returns 0.
func (a *Answer) Direct() (float64, error) {
	if a.Total || a.impl.scalar == nil {
		return a.Estimate.Value, nil
	}
	e, err := a.impl.scalar(a.nominal())
	return e.Value, classify(err)
}

// GroupDirect returns the nominal per-group values of a ShapeGroup answer.
func (a *Answer) GroupDirect() (map[string]float64, error) {
	g, err := a.impl.groups(a.nominal())
	if err != nil {
		return nil, classify(err)
	}
	d := make(map[string]float64, len(g))
	for k, e := range g {
		d[k] = e.Value
	}
	return d, nil
}

// nominal is the answer's call bound to the nominal estimator.
func (a *Answer) nominal() *call {
	c := a.c
	c.est = c.est.Nominal()
	return &c
}

// call is one query bound to its source and compiled predicates.
type call struct {
	est   *estimator.Estimator
	rel   *relation.Relation
	st    *estimator.Statistics
	q     *Query
	pred  estimator.Predicate // ShapeScalar; the zero value is the whole column
	preds []estimator.Predicate
}

// impl answers one (shape, aggregate) from one source kind: the estimate
// function matching the shape is set. Run under the nominal estimator, it
// answers the Direct value too.
type impl struct {
	scalar func(*call) (estimator.Estimate, error)
	groups func(*call) (map[string]estimator.Estimate, error)
	bins   func(*call) ([]estimator.BinEstimate, error)
}

type key struct {
	shape Shape
	agg   AggKind
}

// table is the one dispatch table: for each (shape, aggregate), how a
// resident relation and sufficient statistics answer it. A nil slot is an
// unsupported combination, refused with the hint from refuse.
var table = map[key][2]*impl{
	{ShapeScalar, AggCount}: {
		{scalar: func(c *call) (estimator.Estimate, error) { return c.est.Count(c.rel, c.pred) }},
		{scalar: func(c *call) (estimator.Estimate, error) { return c.est.CountStats(c.st, c.pred) }},
	},
	{ShapeScalar, AggSum}: {
		{scalar: func(c *call) (estimator.Estimate, error) { return c.est.Sum(c.rel, c.q.AggAttr, c.pred) }},
		{scalar: func(c *call) (estimator.Estimate, error) { return c.est.SumStats(c.st, c.q.AggAttr, c.pred) }},
	},
	{ShapeScalar, AggAvg}: {
		{scalar: func(c *call) (estimator.Estimate, error) { return c.est.Avg(c.rel, c.q.AggAttr, c.pred) }},
		{scalar: func(c *call) (estimator.Estimate, error) { return c.est.AvgStats(c.st, c.q.AggAttr, c.pred) }},
	},
	{ShapeScalar, AggMedian}: {
		{scalar: func(c *call) (estimator.Estimate, error) { return c.est.Median(c.rel, c.q.AggAttr, c.pred) }},
		{scalar: func(c *call) (estimator.Estimate, error) { return c.est.MedianStats(c.st, c.q.AggAttr, c.pred) }},
	},
	{ShapeScalar, AggQuantile}: {
		{scalar: func(c *call) (estimator.Estimate, error) {
			return c.est.Percentile(c.rel, c.q.AggAttr, c.pred, c.q.Q)
		}},
		{scalar: func(c *call) (estimator.Estimate, error) {
			return c.est.PercentileStats(c.st, c.q.AggAttr, c.pred, c.q.Q)
		}},
	},
	{ShapeScalar, AggVar}: {
		{scalar: func(c *call) (estimator.Estimate, error) { return c.est.Var(c.rel, c.q.AggAttr, c.pred) }},
		nil,
	},
	{ShapeScalar, AggStd}: {
		{scalar: func(c *call) (estimator.Estimate, error) { return c.est.Std(c.rel, c.q.AggAttr, c.pred) }},
		nil,
	},
	{ShapeConj, AggCount}: {
		{scalar: func(c *call) (estimator.Estimate, error) { return c.est.CountConj(c.rel, c.preds...) }},
		{scalar: func(c *call) (estimator.Estimate, error) { return c.est.CountConjStats(c.st, c.preds...) }},
	},
	{ShapeConj, AggSum}: {
		{scalar: func(c *call) (estimator.Estimate, error) { return c.est.SumConj(c.rel, c.q.AggAttr, c.preds...) }},
		{scalar: func(c *call) (estimator.Estimate, error) { return c.est.SumConjStats(c.st, c.q.AggAttr, c.preds...) }},
	},
	{ShapeConj, AggAvg}: {
		{scalar: func(c *call) (estimator.Estimate, error) { return c.est.AvgConj(c.rel, c.q.AggAttr, c.preds...) }},
		{scalar: func(c *call) (estimator.Estimate, error) { return c.est.AvgConjStats(c.st, c.q.AggAttr, c.preds...) }},
	},
	{ShapeGroup, AggCount}: {
		{groups: func(c *call) (map[string]estimator.Estimate, error) { return c.est.GroupCounts(c.rel, c.q.GroupBy) }},
		{groups: func(c *call) (map[string]estimator.Estimate, error) { return c.est.GroupCountsStats(c.st, c.q.GroupBy) }},
	},
	{ShapeGroup, AggSum}: {
		{groups: func(c *call) (map[string]estimator.Estimate, error) {
			return c.est.GroupSums(c.rel, c.q.GroupBy, c.q.AggAttr)
		}},
		{groups: func(c *call) (map[string]estimator.Estimate, error) {
			return c.est.GroupSumsStats(c.st, c.q.GroupBy, c.q.AggAttr)
		}},
	},
	{ShapeGroup, AggAvg}: {
		{groups: func(c *call) (map[string]estimator.Estimate, error) {
			return c.est.GroupAvgs(c.rel, c.q.GroupBy, c.q.AggAttr)
		}},
		{groups: func(c *call) (map[string]estimator.Estimate, error) {
			return c.est.GroupAvgsStats(c.st, c.q.GroupBy, c.q.AggAttr)
		}},
	},
	{ShapeBin, AggCount}: {
		{bins: func(c *call) ([]estimator.BinEstimate, error) { return c.est.GroupBinCounts(c.rel, c.q.GroupBy) }},
		{bins: func(c *call) ([]estimator.BinEstimate, error) { return c.est.GroupBinCountsStats(c.st, c.q.GroupBy) }},
	},
	{ShapeBin, AggSum}: {
		{bins: func(c *call) ([]estimator.BinEstimate, error) {
			return c.est.GroupBinSums(c.rel, c.q.GroupBy, c.q.AggAttr)
		}},
		nil,
	},
	{ShapeBin, AggAvg}: {
		{bins: func(c *call) ([]estimator.BinEstimate, error) {
			return c.est.GroupBinAvgs(c.rel, c.q.GroupBy, c.q.AggAttr)
		}},
		nil,
	},
}

// refuse is the typed error for a combination the table leaves unsupported
// on a source kind. Hints naming -in/-col point statistics users at the
// resident paths that do answer.
func refuse(sh Shape, kind int, q *Query) error {
	var msg string
	switch {
	case sh == ShapeConj:
		msg = fmt.Sprintf("%s does not support AND conjunctions", q.Agg)
	case sh == ShapeGroup:
		msg = "GROUP BY supports count(1), sum, and avg only"
	case sh == ShapeBin && kind == resident:
		msg = fmt.Sprintf("GROUP BY bin(%s) supports count(1), sum, and avg only", q.GroupBy)
	case sh == ShapeBin:
		msg = fmt.Sprintf("%s GROUP BY bin(%s) needs per-bin numeric moments the statistics do not record; query the view with -in/-col", q.Agg, q.GroupBy)
	case kind == resident:
		msg = fmt.Sprintf("unsupported aggregate %s", q.Agg)
	default:
		msg = fmt.Sprintf("%s needs the raw private rows, which statistics do not carry; query the view with -in/-col", q.Agg)
	}
	return faults.Errorf(faults.ErrBadQuery, "query: %s", msg)
}

// classify types an unclassified compile or estimation error as a bad
// query: past parsing, every such failure is the query's problem.
func classify(err error) error {
	if err != nil && faults.Kind(err) == nil {
		return faults.Wrap(faults.ErrBadQuery, err)
	}
	return err
}

// Run answers a parsed query from src with the PrivateClean estimator. It
// is the single query executor: the CLI, the query server (single and
// batch) and core.Analyst all call it, so one query gets the same estimate,
// or the same typed ErrBadQuery, on every front end. tel receives the
// query counter and latency histogram.
func Run(tel *telemetry.Set, est *estimator.Estimator, src Source, q *Query, udfs UDFs) (*Answer, error) {
	start := time.Now()
	defer func() {
		reg := tel.Metrics
		reg.Memo(queriesKey(q.Agg), func() any {
			return reg.Counter("privateclean_queries_total", "Estimated queries, by aggregate.",
				telemetry.L("agg", q.Agg.String()))
		}).(*telemetry.Counter).Inc()
		reg.Memo(secondsKey{}, func() any {
			return reg.Histogram("privateclean_query_seconds", "Wall time of query estimation.",
				telemetry.DurationBuckets)
		}).(*telemetry.Histogram).Observe(time.Since(start).Seconds())
	}()
	a, err := run(est, src, q, udfs)
	return a, classify(err)
}

// queriesKey and secondsKey key Run's instruments in a registry's Memo.
type (
	queriesKey AggKind
	secondsKey struct{}
)

func run(est *estimator.Estimator, src Source, q *Query, udfs UDFs) (*Answer, error) {
	a := &Answer{c: call{est: est, rel: src.Rel, st: src.Stats, q: q}}
	c := &a.c
	kind := src.kind()
	var err error
	switch {
	case len(q.AndWhere) > 0:
		a.Shape = ShapeConj
		if c.preds, err = CompileConjunction(q.Conds(), udfs); err != nil {
			return nil, err
		}
		if kind == statistics && len(c.preds) == 1 {
			// Statistics answer conjuncts over one attribute as the single
			// marginal predicate they merge into, without a joint.
			a.Shape, c.pred = ShapeScalar, c.preds[0]
		}
	case q.GroupBin:
		a.Shape = ShapeBin
	case q.GroupBy != "":
		a.Shape = ShapeGroup
	case q.Where == nil:
		a.Total = q.Agg == AggCount || q.Agg == AggSum || q.Agg == AggAvg
	default:
		if c.pred, err = CompilePredicate(q.Where, udfs); err != nil {
			return nil, err
		}
	}
	if a.impl = table[key{a.Shape, q.Agg}][kind]; a.impl == nil {
		return nil, refuse(a.Shape, kind, q)
	}
	switch a.Shape {
	case ShapeGroup:
		a.Groups, err = a.impl.groups(c)
	case ShapeBin:
		a.Bins, err = a.impl.bins(c)
	default:
		a.Estimate, err = a.impl.scalar(c)
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}
