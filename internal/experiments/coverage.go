package experiments

import (
	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/workload"
)

// Coverage series names.
const (
	SeriesCountCoverage = "count coverage %"
	SeriesSumCoverage   = "sum coverage %"
	SeriesAvgCoverage   = "avg coverage %"
)

// CoverageValidation empirically checks the Section 5 confidence intervals:
// for each privacy level p it measures how often the nominal 95% intervals
// of the count, sum, and avg estimators cover the true (non-private) query
// result. Asymptotically the rate should be at least the nominal level
// (the count/sum intervals use the conservative 1/(1-p) inflation, so
// over-coverage is expected).
func CoverageValidation(cfg Config) (*Table, error) {
	ps := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5}
	t := &Table{
		ID:     "coverage",
		Title:  "CI validation: empirical coverage of the nominal 95% intervals",
		XLabel: "p",
		Series: []string{SeriesCountCoverage, SeriesSumCoverage, SeriesAvgCoverage},
	}
	for _, p := range ps {
		var countCov, sumCov, avgCov, total float64
		for trial := 0; trial < cfg.Trials; trial++ {
			rng := trialRNG(cfg.Seed+16000, 0, trial)
			r, err := workload.Synthetic(rng, workload.SyntheticConfig{S: cfg.S, N: cfg.N, Z: cfg.Z})
			if err != nil {
				return nil, err
			}
			v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), p, cfg.B))
			if err != nil {
				return nil, err
			}
			domain := meta.Discrete["category"].Domain
			pred := estimator.In("category", pickValues(rng, domain, cfg.L)...)
			count, err := exact.Count(r, pred)
			if err != nil {
				return nil, err
			}
			sum, err := exact.Sum(r, "value", pred)
			if err != nil {
				return nil, err
			}
			truthCount, truthSum := count.Value, sum.Value
			est := &estimator.Estimator{Meta: meta, Confidence: 0.95}
			c, err := est.Count(v, pred)
			if err != nil {
				return nil, err
			}
			h, err := est.Sum(v, "value", pred)
			if err != nil {
				return nil, err
			}
			total++
			if c.Lo() <= truthCount && truthCount <= c.Hi() {
				countCov++
			}
			if h.Lo() <= truthSum && truthSum <= h.Hi() {
				sumCov++
			}
			if truthCount > 0 {
				truthAvg := truthSum / truthCount
				if av, err := est.Avg(v, "value", pred); err == nil {
					if av.Lo() <= truthAvg && truthAvg <= av.Hi() {
						avgCov++
					}
				}
			}
		}
		t.Points = append(t.Points, Point{X: p, Values: map[string]float64{
			SeriesCountCoverage: 100 * countCov / total,
			SeriesSumCoverage:   100 * sumCov / total,
			SeriesAvgCoverage:   100 * avgCov / total,
		}})
	}
	return t, nil
}
