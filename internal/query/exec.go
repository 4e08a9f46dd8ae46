package query

import (
	"fmt"
	"sort"
	"strings"

	"privateclean/internal/estimator"
	"privateclean/internal/relation"
)

// UDFs is a registry of user-defined predicate functions usable in WHERE
// clauses, keyed by lower-case name.
type UDFs map[string]func(string) bool

// Result is the outcome of exactly executing a query against a relation.
type Result struct {
	// Scalar holds the aggregate for a non-GROUP BY query.
	Scalar float64
	// Groups holds per-group aggregates for a GROUP BY query.
	Groups map[string]float64
	// IsGroupBy distinguishes the two shapes.
	IsGroupBy bool
}

// GroupKeys returns the sorted group keys of a GROUP BY result.
func (r Result) GroupKeys() []string {
	keys := make([]string, 0, len(r.Groups))
	for k := range r.Groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CompilePredicate turns a parsed condition into an estimator.Predicate,
// resolving UDF names against the registry.
func CompilePredicate(c *Cond, udfs UDFs) (estimator.Predicate, error) {
	var pred estimator.Predicate
	switch c.Kind {
	case CondEq:
		pred = estimator.Eq(c.Attr, c.Values[0])
	case CondIn:
		pred = estimator.In(c.Attr, c.Values...)
	case CondUDF:
		// UDF names are case-insensitive: the registry is keyed lower-case.
		f, ok := udfs[strings.ToLower(c.UDF)]
		if !ok {
			return estimator.Predicate{}, fmt.Errorf("query: unknown UDF %q", c.UDF)
		}
		pred = estimator.Fn(c.Attr, c.UDF, f)
	default:
		return estimator.Predicate{}, fmt.Errorf("query: invalid condition kind %d", c.Kind)
	}
	if c.Negate {
		pred = estimator.Not(pred)
	}
	return pred, nil
}

// CompileConjunction compiles a WHERE conjunction into one predicate per
// distinct attribute: conjuncts over the same attribute are merged with a
// logical AND of their match functions (they reduce to one value subset),
// so the result is directly usable with the estimator's conjunction
// methods, which require distinct attributes.
func CompileConjunction(conds []*Cond, udfs UDFs) ([]estimator.Predicate, error) {
	byAttr := make(map[string]estimator.Predicate)
	var order []string
	for _, c := range conds {
		pred, err := CompilePredicate(c, udfs)
		if err != nil {
			return nil, err
		}
		if prev, ok := byAttr[c.Attr]; ok {
			// estimator.And keeps the merged predicate's description
			// canonical, so a server-side channel cache never conflates two
			// different conjunctions over the same attribute.
			byAttr[c.Attr] = estimator.And(prev, pred)
			continue
		}
		byAttr[c.Attr] = pred
		order = append(order, c.Attr)
	}
	out := make([]estimator.Predicate, 0, len(order))
	for _, attr := range order {
		out = append(out, byAttr[attr])
	}
	return out, nil
}

// Exec evaluates a query exactly against a relation. This is the
// ground-truth oracle: running Exec on the hypothetically cleaned
// non-private relation R_clean yields the value the estimators are judged
// against. Whole-column count, sum and avg and GROUP BY are row loops of
// their own; every other query runs the executor under the nominal
// estimator, which answers a query as-is.
func Exec(rel *relation.Relation, q *Query, udfs UDFs) (Result, error) {
	if q.GroupBy != "" {
		return execGroupBy(rel, q)
	}
	if q.Where == nil {
		switch q.Agg {
		case AggCount:
			return Result{Scalar: float64(rel.NumRows())}, nil
		case AggSum, AggAvg:
			col, err := rel.Numeric(q.AggAttr)
			if err != nil {
				return Result{}, err
			}
			s, n := 0.0, 0
			for _, x := range col {
				if x == x { // skip NaN
					s += x
					n++
				}
			}
			if q.Agg == AggSum {
				return Result{Scalar: s}, nil
			}
			if n == 0 {
				return Result{}, fmt.Errorf("query: avg over empty column %q", q.AggAttr)
			}
			return Result{Scalar: s / float64(n)}, nil
		}
	}
	a, err := run(new(estimator.Estimator).Nominal(), Source{Rel: rel}, q, udfs)
	if err != nil {
		return Result{}, err
	}
	return Result{Scalar: a.Estimate.Value}, nil
}

func execGroupBy(rel *relation.Relation, q *Query) (Result, error) {
	if q.GroupBin {
		// Binned GROUP BY is defined by the released bin layout in the view
		// metadata, which the exact oracle does not carry; it is answered by
		// the estimator paths only.
		return Result{}, fmt.Errorf("query: GROUP BY bin(%s) needs the view's released bin layout and has no exact-oracle form", q.GroupBy)
	}
	groupCol, err := rel.Discrete(q.GroupBy)
	if err != nil {
		return Result{}, err
	}
	switch q.Agg {
	case AggCount:
		counts := make(map[string]float64)
		for _, v := range groupCol {
			counts[v]++
		}
		return Result{Groups: counts, IsGroupBy: true}, nil
	case AggSum, AggAvg:
		vals, err := rel.Numeric(q.AggAttr)
		if err != nil {
			return Result{}, err
		}
		sums := make(map[string]float64)
		counts := make(map[string]float64)
		for i, v := range groupCol {
			x := vals[i]
			if x != x {
				continue
			}
			sums[v] += x
			counts[v]++
		}
		if q.Agg == AggSum {
			return Result{Groups: sums, IsGroupBy: true}, nil
		}
		avgs := make(map[string]float64, len(sums))
		for k, s := range sums {
			if counts[k] > 0 {
				avgs[k] = s / counts[k]
			}
		}
		return Result{Groups: avgs, IsGroupBy: true}, nil
	default:
		return Result{}, fmt.Errorf("query: invalid aggregate %v", q.Agg)
	}
}
