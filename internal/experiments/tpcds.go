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

// TPCDSDefault returns the dataset configuration used by the Figure 8
// experiments.
func TPCDSDefault() workload.TPCDSConfig {
	return workload.TPCDSConfig{}.WithDefaults()
}

// Figure8 reproduces Figure 8: constraint-based cleaning on the synthetic
// TPC-DS customer_address table.
//
//   - fig8a corrupts ca_state in a growing number of rows and repairs with
//     the functional dependency [ca_city, ca_county] -> ca_state; the query
//     is SELECT count(1) FROM R GROUP BY ca_state and the error is the mean
//     relative per-group error. The FD repair is heuristic (majority
//     repair), so residual error grows with the corruption count for both
//     estimators.
//   - fig8b appends one-character corruptions to ca_country and repairs
//     with a distance-1 matching dependency; the query groups by
//     ca_country. The MD merges values in the domain, so PrivateClean's
//     advantage over Direct is larger than in fig8a.
func Figure8(cfg Config) ([]*Table, error) {
	ds := TPCDSDefault()
	corruptions := []int{0, 100, 200, 300, 400, 500}

	a := &Table{ID: "fig8a", Title: "Figure 8a: group-by ca_state count error vs state corruptions (FD repair)", XLabel: "corruptions", Series: []string{SeriesDirect, SeriesPCNoProv, SeriesPrivateClean}}
	for _, k := range corruptions {
		col, err := runTrials(cfg.Trials, func(trial int, col *collector) error {
			return tpcdsTrialFD(trialRNG(cfg.Seed+8000, 0, trial), cfg, ds, k, col)
		})
		if err != nil {
			return nil, fmt.Errorf("fig8a corruptions=%d: %w", k, err)
		}
		a.Points = append(a.Points, Point{X: float64(k), Values: col.meanPct()})
	}

	b := &Table{ID: "fig8b", Title: "Figure 8b: group-by ca_country count error vs country corruptions (MD repair)", XLabel: "corruptions", Series: []string{SeriesDirect, SeriesPCNoProv, SeriesPrivateClean}}
	for _, k := range corruptions {
		col, err := runTrials(cfg.Trials, func(trial int, col *collector) error {
			return tpcdsTrialMD(trialRNG(cfg.Seed+9000, 0, trial), cfg, ds, k, col)
		})
		if err != nil {
			return nil, fmt.Errorf("fig8b corruptions=%d: %w", k, err)
		}
		b.Points = append(b.Points, Point{X: float64(k), Values: col.meanPct()})
	}
	return []*Table{a, b}, nil
}

func tpcdsTrialFD(rng *rand.Rand, cfg Config, ds workload.TPCDSConfig, corruptions int, col *collector) error {
	r, err := workload.CustomerAddress(rng, ds)
	if err != nil {
		return err
	}
	if err := workload.CorruptStates(rng, r, corruptions, ds.States); err != nil {
		return err
	}
	// Two chained repairs, as constraint-repair algorithms do when solving
	// for all constraints and their implications (Section 8.2): the city
	// determines the county, and (city, county) determine the state. The
	// first repair re-aligns rows whose county disagrees with their city
	// (including rows whose city was randomized), so the second repair's
	// groups are well-formed.
	repairs := []cleaning.Op{
		cleaning.FDRepair{LHS: []string{"ca_city"}, RHS: "ca_county"},
		cleaning.FDRepair{LHS: []string{"ca_city", "ca_county"}, RHS: "ca_state"},
	}
	return tpcdsGroupByTrial(rng, cfg, r, "ca_state", col, repairs...)
}

func tpcdsTrialMD(rng *rand.Rand, cfg Config, ds workload.TPCDSConfig, corruptions int, col *collector) error {
	r, err := workload.CustomerAddress(rng, ds)
	if err != nil {
		return err
	}
	if err := workload.CorruptCountries(rng, r, corruptions); err != nil {
		return err
	}
	repair := cleaning.MDRepair{Attr: "ca_country", MaxDist: 1}
	return tpcdsGroupByTrial(rng, cfg, r, "ca_country", col, repair)
}

// tpcdsGroupByTrial runs one trial of a GROUP BY count experiment: clean the
// original for ground truth, privatize and clean the view, estimate
// per-group counts, and record the mean relative per-group error.
func tpcdsGroupByTrial(rng *rand.Rand, cfg Config, r *relation.Relation, groupAttr string, col *collector, repairs ...cleaning.Op) error {
	rClean := r.Clone()
	if err := cleaning.Apply(&cleaning.Context{Rel: rClean}, repairs...); err != nil {
		return err
	}
	v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), cfg.P, cfg.B))
	if err != nil {
		return err
	}
	a := newAnalysis(v, meta)
	if err := a.clean(repairs...); err != nil {
		return err
	}

	truth, err := rClean.ValueCounts(groupAttr)
	if err != nil {
		return err
	}
	noProv := &estimator.Estimator{Meta: a.est.Meta, Confidence: a.est.Confidence}
	nominal := a.est.Nominal()
	var directErrs, pcErrs, npErrs []float64
	for g, want := range truth {
		if want == 0 {
			continue
		}
		pred := estimator.Eq(groupAttr, g)
		direct, err := nominal.Count(a.rel, pred)
		if err != nil {
			return err
		}
		pc, err := a.est.Count(a.rel, pred)
		if err != nil {
			return err
		}
		np, err := noProv.Count(a.rel, pred)
		if err != nil {
			return err
		}
		directErrs = append(directErrs, stats.RelativeError(direct.Value, float64(want)))
		pcErrs = append(pcErrs, stats.RelativeError(pc.Value, float64(want)))
		npErrs = append(npErrs, stats.RelativeError(np.Value, float64(want)))
	}
	if d, err := stats.MeanFinite(directErrs); err == nil {
		col.add(SeriesDirect, d)
	}
	if p, err := stats.MeanFinite(pcErrs); err == nil {
		col.add(SeriesPrivateClean, p)
	}
	if n, err := stats.MeanFinite(npErrs); err == nil {
		col.add(SeriesPCNoProv, n)
	}
	return nil
}
