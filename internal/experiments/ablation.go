package experiments

import (
	"fmt"
	"math/rand"

	"privateclean/internal/cleaning"
	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/provenance"
	"privateclean/internal/stats"
	"privateclean/internal/workload"
)

// Ablation series names.
const (
	SeriesSumComplement = "Sum(complement)"
	SeriesSumNaive      = "Sum(ignore-FP)"
)

// AblationSumComplement isolates the design choice of Section 5.5: the sum
// estimator subtracts the false-positive mass the randomization leaks into
// the predicate (via the complement-query identity) instead of merely
// inverting the true-positive attenuation. The naive variant's bias grows
// with the mass outside the predicate — the data-correlation scenario the
// paper cites as the sum estimator's "key challenge".
//
// The experiment sweeps the category/value correlation of the synthetic
// generator and reports sum error for Direct, the naive single-equation
// corrected estimator, and the full complement-trick estimator.
func AblationSumComplement(cfg Config) (*Table, error) {
	correlations := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	t := &Table{
		ID:     "abl-sum",
		Title:  "Ablation: sum estimator with vs without false-positive subtraction",
		XLabel: "category/value correlation",
		Series: []string{SeriesDirect, SeriesSumNaive, SeriesSumComplement},
	}
	for _, corr := range correlations {
		col := newCollector()
		for trial := 0; trial < cfg.Trials; trial++ {
			rng := trialRNG(cfg.Seed+14000, 0, trial)
			r, err := workload.Synthetic(rng, workload.SyntheticConfig{
				S: cfg.S, N: cfg.N, Z: cfg.Z, Correlation: corr,
			})
			if err != nil {
				return nil, err
			}
			v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), cfg.P, cfg.B))
			if err != nil {
				return nil, err
			}
			domain := meta.Discrete["category"].Domain
			pred := estimator.In("category", pickValues(rng, domain, cfg.L)...)
			truth, err := exact.Sum(r, "value", pred)
			if err != nil {
				return nil, err
			}
			est := &estimator.Estimator{Meta: meta, Confidence: cfg.Confidence}
			full, err := est.Sum(v, "value", pred)
			if err != nil {
				return nil, err
			}
			naive, err := est.SumIgnoringFalsePositives(v, "value", pred)
			if err != nil {
				return nil, err
			}
			direct, err := est.Nominal().Sum(v, "value", pred)
			if err != nil {
				return nil, err
			}
			col.add(SeriesSumComplement, stats.RelativeError(full.Value, truth.Value))
			col.add(SeriesSumNaive, stats.RelativeError(naive.Value, truth.Value))
			col.add(SeriesDirect, stats.RelativeError(direct.Value, truth.Value))
		}
		t.Points = append(t.Points, Point{X: corr, Values: col.meanPct()})
	}
	return t, nil
}

// AblationProvenanceCost measures the space side of Propositions 3 and 4:
// the provenance graph's edge count after single-attribute (fork-free) and
// multi-attribute (weighted) cleaning, as a function of the number of
// affected distinct values N-hat. Fork-free graphs stay at one edge per
// dirty value (O(N-hat)); weighted graphs can fan out.
func AblationProvenanceCost(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "abl-prov",
		Title:  "Ablation: provenance graph edges per dirty value (Prop. 3/4 space bounds)",
		XLabel: "error rate",
		Series: []string{"fork-free edges/value", "weighted edges/value"},
	}
	rates := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	for _, rate := range rates {
		var forkFree, weighted float64
		trials := cfg.Trials
		if trials > 20 {
			trials = 20
		}
		for trial := 0; trial < trials; trial++ {
			rng := trialRNG(cfg.Seed+15000, 0, trial)

			// Single-attribute merge: fork-free graph.
			ff, err := singleAttrEdgeDensity(rng, cfg, rate)
			if err != nil {
				return nil, err
			}
			forkFree += ff

			// Multi-attribute FD imputation: weighted graph.
			w, err := multiAttrEdgeDensity(rng, cfg, rate)
			if err != nil {
				return nil, err
			}
			weighted += w
		}
		t.Points = append(t.Points, Point{X: rate, Values: map[string]float64{
			"fork-free edges/value": forkFree / float64(trials),
			"weighted edges/value":  weighted / float64(trials),
		}})
	}
	return t, nil
}

// singleAttrEdgeDensity returns edges per dirty value of the provenance
// graph after a single-attribute merge cleaner at the given error rate.
func singleAttrEdgeDensity(rng *rand.Rand, cfg Config, rate float64) (float64, error) {
	r, err := workload.Synthetic(rng, workload.SyntheticConfig{S: cfg.S, N: cfg.N, Z: cfg.Z})
	if err != nil {
		return 0, err
	}
	domain, err := r.Domain("category")
	if err != nil {
		return 0, err
	}
	mapping, err := workload.RandomValueMap(rng, domain, rate, 0)
	if err != nil {
		return 0, err
	}
	v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), cfg.P, cfg.B))
	if err != nil {
		return 0, err
	}
	prov := provenance.NewStore()
	ctx := &cleaning.Context{Rel: v, Prov: prov, Meta: meta}
	if err := cleaning.Apply(ctx, cleaning.DictionaryMerge{Attr: "category", Mapping: mapping}); err != nil {
		return 0, err
	}
	g, ok := prov.Graph("category")
	if !ok {
		return 0, fmt.Errorf("no graph recorded")
	}
	return float64(g.EdgeCount()) / float64(g.DomainSize()), nil
}

// multiAttrEdgeDensity returns edges per dirty value after an FD-based
// imputation whose missing value forks across many clean values.
func multiAttrEdgeDensity(rng *rand.Rand, cfg Config, rate float64) (float64, error) {
	r, err := workload.MultiAttr(rng, workload.MultiAttrConfig{S: cfg.S, Z: cfg.Z, ErrorRate: rate})
	if err != nil {
		return 0, err
	}
	v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), cfg.P, cfg.B))
	if err != nil {
		return 0, err
	}
	prov := provenance.NewStore()
	ctx := &cleaning.Context{Rel: v, Prov: prov, Meta: meta}
	if err := cleaning.Apply(ctx, cleaning.FDImpute{LHS: []string{"section"}, RHS: "instructor"}); err != nil {
		return 0, err
	}
	g, ok := prov.Graph("instructor")
	if !ok {
		return 0, fmt.Errorf("no graph recorded")
	}
	return float64(g.EdgeCount()) / float64(g.DomainSize()), nil
}
