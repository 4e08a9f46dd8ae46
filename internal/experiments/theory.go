package experiments

import (
	"fmt"
	"math"

	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/stats"
	"privateclean/internal/workload"
)

// Theorem2Validation reproduces the Theorem 2 dataset-size analysis
// (Section 4.3 and Example 3): for each (N, p, alpha) setting it reports the
// analytic bound on the dataset size S and the empirically measured
// domain-preservation probability at that size, which should be at least
// 1 - alpha.
//
// The empirical check uses the theorem's worst-case construction: one
// domain value present exactly once, the remaining S-1 rows spread over the
// other N-1 values.
func Theorem2Validation(cfg Config) (*Table, error) {
	type setting struct {
		n     int
		p     float64
		alpha float64
	}
	settings := []setting{
		{25, 0.25, 0.05}, // Example 3, 95% confidence
		{25, 0.25, 0.01}, // Example 3, 99% confidence
		{50, 0.1, 0.05},  // Table 1 defaults
		{50, 0.5, 0.05},
		{100, 0.25, 0.05},
	}
	t := &Table{
		ID:     "thm2",
		Title:  "Theorem 2: dataset size bound S > (N/p) log(pN/alpha) vs empirical domain preservation",
		XLabel: "setting",
		Series: []string{"bound S", "empirical P[all] %", "target %"},
	}
	for i, s := range settings {
		bound, err := privacy.MinDatasetSize(s.n, s.p, s.alpha)
		if err != nil {
			return nil, err
		}
		size := int(math.Ceil(bound))
		preserved := 0
		for trial := 0; trial < cfg.Trials; trial++ {
			rng := trialRNG(cfg.Seed+12000, i, trial)
			// Worst-case construction from the Theorem 2 proof.
			col := make([]string, size)
			col[0] = workload.CategoryValue(0)
			for j := 1; j < size; j++ {
				col[j] = workload.CategoryValue(1 + rng.Intn(s.n-1))
			}
			domain := make([]string, s.n)
			for k := range domain {
				domain[k] = workload.CategoryValue(k)
			}
			priv, err := privacy.RandomizedResponse(rng, col, domain, s.p)
			if err != nil {
				return nil, err
			}
			seen := make(map[string]bool, s.n)
			for _, v := range priv {
				seen[v] = true
			}
			if len(seen) == s.n {
				preserved++
			}
		}
		t.Points = append(t.Points, Point{
			Label: fmt.Sprintf("N=%d p=%v alpha=%v", s.n, s.p, s.alpha),
			Values: map[string]float64{
				"bound S":            float64(size),
				"empirical P[all] %": 100 * float64(preserved) / float64(cfg.Trials),
				"target %":           100 * (1 - s.alpha),
			},
		})
	}
	return t, nil
}

// TunerValidation exercises the Appendix E parameter-tuning algorithm: for
// each target count-query error it derives p via Tune, runs randomized
// count queries on tuned private relations, and reports the observed
// fraction error |c_hat - c|/S against the target, which should hold for
// ~95% of queries.
func TunerValidation(cfg Config) (*Table, error) {
	targets := []float64{0.05, 0.1, 0.15, 0.2}
	t := &Table{
		ID:     "tuner",
		Title:  "Appendix E tuner: target count error vs tuned p and observed error",
		XLabel: "target error",
		Series: []string{"tuned p", "mean |s_hat - s|", "p95 |s_hat - s|", "within target %"},
	}
	for i, target := range targets {
		var tunedP float64
		var errsFrac []float64
		within := 0
		total := 0
		for trial := 0; trial < cfg.Trials; trial++ {
			rng := trialRNG(cfg.Seed+13000, i, trial)
			r, err := workload.Synthetic(rng, workload.SyntheticConfig{S: cfg.S, N: cfg.N, Z: cfg.Z})
			if err != nil {
				return nil, err
			}
			params, err := privacy.Tune(r, target, cfg.Confidence)
			if err != nil {
				return nil, err
			}
			tunedP = params.P["category"]
			v, meta, err := privacy.Privatize(rng, r, params)
			if err != nil {
				return nil, err
			}
			domain := meta.Discrete["category"].Domain
			pred := estimator.In("category", pickValues(rng, domain, cfg.L)...)
			truth, err := exact.Count(r, pred)
			if err != nil {
				return nil, err
			}
			est := &estimator.Estimator{Meta: meta, Confidence: cfg.Confidence}
			got, err := est.Count(v, pred)
			if err != nil {
				return nil, err
			}
			frac := math.Abs(got.Value-truth.Value) / float64(cfg.S)
			errsFrac = append(errsFrac, frac)
			total++
			if frac <= target {
				within++
			}
		}
		mean, err := stats.MeanFinite(errsFrac)
		if err != nil {
			return nil, err
		}
		p95, err := stats.Quantile(errsFrac, 0.95)
		if err != nil {
			return nil, err
		}
		t.Points = append(t.Points, Point{
			X: target,
			Values: map[string]float64{
				"tuned p":          tunedP,
				"mean |s_hat - s|": mean,
				"p95 |s_hat - s|":  p95,
				"within target %":  100 * float64(within) / float64(total),
			},
		})
	}
	return t, nil
}

// All runs every experiment and returns the tables in paper order. It is
// the driver behind cmd/experiments and the benchmark harness.
func All(cfg Config) ([]*Table, error) {
	var out []*Table
	out = append(out, DefaultParams())
	for _, f := range []func(Config) ([]*Table, error){
		Figure2, Figure3, Figure4, Figure5, Figure6, Figure7, Figure8, Figure9, Figure10, Figure11,
	} {
		tables, err := f(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, tables...)
	}
	thm2, err := Theorem2Validation(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, thm2)
	tuner, err := TunerValidation(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, tuner)
	return out, nil
}
