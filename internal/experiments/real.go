package experiments

import (
	"fmt"
	"math/rand"

	"privateclean/internal/cleaning"
	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/stats"
	"privateclean/internal/workload"
)

// matchedParams builds GRR parameters where the numerical attribute's
// Laplace scale is chosen so both attributes carry the same per-attribute
// epsilon (the Figure 10 protocol: "we accordingly scale the numerical
// privacy parameter b such that both attributes have the same eps privacy
// parameter").
func matchedParams(r *relation.Relation, p float64) (privacy.Params, error) {
	eps := privacy.EpsilonDiscrete(p)
	params := privacy.Params{P: make(map[string]float64), B: make(map[string]float64)}
	for _, name := range r.Schema().DiscreteNames() {
		params.P[name] = p
	}
	for _, name := range r.Schema().NumericNames() {
		col, err := r.Numeric(name)
		if err != nil {
			return privacy.Params{}, err
		}
		delta := 0.0
		if lo, hi, err := stats.MinMax(col); err == nil {
			delta = hi - lo
		}
		b, err := privacy.BForEpsilon(delta, eps)
		if err != nil {
			return privacy.Params{}, err
		}
		params.B[name] = b
	}
	return params, nil
}

// Figure10 reproduces Figure 10: count and avg query error on the
// IntelWireless sensor log as a function of privacy. The cleaning task
// merges spurious sensor ids to NULL; the queries are
//
//	SELECT count(1) FROM R WHERE sensor_id != NULL
//	SELECT avg(temp) FROM R WHERE sensor_id != NULL
//
// The gray reference series is the query on the original dirty dataset with
// no cleaning and no privacy — past a privacy level, the cleaned private
// relation is *more* accurate than the dirty original.
func Figure10(cfg Config) ([]*Table, error) {
	return realDatasetFigure(cfg, realSpec{
		id:    "fig10",
		title: "Figure 10: IntelWireless",
		seed:  cfg.Seed + 10000,
		gen: func(rng *rand.Rand) (*relation.Relation, error) {
			return workload.IntelWireless(rng, workload.IntelWirelessConfig{})
		},
		agg:  "temp",
		pred: estimator.NotEq("sensor_id", relation.Null),
		ops: func(*relation.Relation) []cleaning.Op {
			valid := workload.ValidSensorIDs(68)
			return []cleaning.Op{cleaning.NullifyInvalid{Attr: "sensor_id", Valid: func(v string) bool { return valid[v] }}}
		},
	})
}

// Figure11 reproduces Figure 11: count and avg query error on the MCAFE
// course evaluations as a function of privacy. The transformation merges
// European country codes into one region — a use of the bipartite graph
// beyond traditional cleaning — and the queries aggregate the merged
// region:
//
//	SELECT count(1) FROM R WHERE isEurope(country)
//	SELECT avg(score) FROM R WHERE isEurope(country)
//
// The distinct fraction is high (~21%), so estimates carry more error than
// IntelWireless (the paper's "much harder dataset").
func Figure11(cfg Config) ([]*Table, error) {
	return realDatasetFigure(cfg, realSpec{
		id:    "fig11",
		title: "Figure 11: MCAFE",
		seed:  cfg.Seed + 11000,
		gen:   func(rng *rand.Rand) (*relation.Relation, error) { return workload.MCAFE(rng, workload.MCAFEConfig{}) },
		agg:   "score",
		pred:  estimator.Eq("country", "Europe"),
		ops: func(r *relation.Relation) []cleaning.Op {
			return []cleaning.Op{cleaning.Transform{
				Attr:  "country",
				Label: "isEurope-merge",
				F: func(v string) string {
					if workload.IsEurope(v) {
						return "Europe"
					}
					return v
				},
			}}
		},
	})
}

type realSpec struct {
	id, title string
	seed      int64
	gen       func(*rand.Rand) (*relation.Relation, error)
	ops       func(*relation.Relation) []cleaning.Op
	agg       string
	pred      estimator.Predicate
}

func realDatasetFigure(cfg Config, spec realSpec) ([]*Table, error) {
	ps := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5}
	series := []string{SeriesDirect, SeriesPrivateClean, SeriesDirtyNoPriv}
	countT := &Table{ID: spec.id + "a", Title: spec.title + ": count error vs privacy", XLabel: "p", Series: series}
	avgT := &Table{ID: spec.id + "b", Title: spec.title + ": avg error vs privacy", XLabel: "p", Series: series}

	for _, p := range ps {
		col, err := runTrials(cfg.Trials, func(trial int, col *collector) error {
			return realTrial(trialRNG(spec.seed, 0, trial), cfg, spec, p, col)
		})
		if err != nil {
			return nil, fmt.Errorf("%s p=%v: %w", spec.id, p, err)
		}
		means := col.meanPct()
		pick := func(prefix string) map[string]float64 {
			out := make(map[string]float64)
			for _, name := range series {
				if v, ok := means[prefix+name]; ok {
					out[name] = v
				}
			}
			return out
		}
		countT.Points = append(countT.Points, Point{X: p, Values: pick("count/")})
		avgT.Points = append(avgT.Points, Point{X: p, Values: pick("avg/")})
	}
	return []*Table{countT, avgT}, nil
}

func realTrial(rng *rand.Rand, cfg Config, spec realSpec, p float64, col *collector) error {
	r, err := spec.gen(rng)
	if err != nil {
		return err
	}
	ops := spec.ops(r)

	rClean := r.Clone()
	if err := cleaning.Apply(&cleaning.Context{Rel: rClean}, ops...); err != nil {
		return err
	}

	params, err := matchedParams(r, p)
	if err != nil {
		return err
	}
	v, meta, err := privacy.Privatize(rng, r, params)
	if err != nil {
		return err
	}
	a := newAnalysis(v, meta)
	if err := a.clean(ops...); err != nil {
		return err
	}

	truthCount, err := exact.Count(rClean, spec.pred)
	if err != nil {
		return err
	}
	truthAvg, err := exact.Avg(rClean, spec.agg, spec.pred)
	if err != nil {
		return err
	}

	direct := a.est.Nominal()
	directCount, err := direct.Count(a.rel, spec.pred)
	if err != nil {
		return err
	}
	directAvg, _ := direct.Avg(a.rel, spec.agg, spec.pred) // a failed avg scores 0
	pcCount, err := a.est.Count(a.rel, spec.pred)
	if err != nil {
		return err
	}
	pcAvg, err := a.est.Avg(a.rel, spec.agg, spec.pred)
	if err != nil {
		return err
	}

	col.add("count/"+SeriesDirect, stats.RelativeError(directCount.Value, truthCount.Value))
	col.add("count/"+SeriesPrivateClean, stats.RelativeError(pcCount.Value, truthCount.Value))
	col.add("avg/"+SeriesDirect, stats.RelativeError(directAvg.Value, truthAvg.Value))
	col.add("avg/"+SeriesPrivateClean, stats.RelativeError(pcAvg.Value, truthAvg.Value))

	// Gray reference: the original dirty relation, no cleaning, no privacy.
	// The Figure 10/11 predicates reference cleaned values; on the dirty
	// relation they select whatever rows nominally match.
	dirtyCount, err := exact.Count(r, spec.pred)
	if err != nil {
		return err
	}
	col.add("count/"+SeriesDirtyNoPriv, stats.RelativeError(dirtyCount.Value, truthCount.Value))
	if dirtyAvg, err := exact.Avg(r, spec.agg, spec.pred); err == nil {
		col.add("avg/"+SeriesDirtyNoPriv, stats.RelativeError(dirtyAvg.Value, truthAvg.Value))
	}
	return nil
}
