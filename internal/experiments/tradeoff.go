package experiments

import (
	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/stats"
	"privateclean/internal/workload"
)

// PrivacyUtilityTradeoff puts both axes of the paper's tradeoff in one
// table: as p grows, the attacker's advantage (how much better than the
// uniform prior a believe-the-release attack identifies a row's true
// value) falls toward zero while the PrivateClean query error grows. The
// provider picks the operating point; Theorem 2 and the Appendix E tuner
// are the paper's tools for doing so.
func PrivacyUtilityTradeoff(cfg Config) (*Table, error) {
	ps := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9}
	t := &Table{
		ID:     "tradeoff",
		Title:  "Privacy/utility tradeoff: attacker advantage vs query error",
		XLabel: "p",
		Series: []string{"attacker advantage %", "epsilon", "count error % (PrivateClean)"},
	}
	for _, p := range ps {
		adv, err := privacy.AttackerAdvantage(p, cfg.N)
		if err != nil {
			return nil, err
		}
		col := newCollector()
		for trial := 0; trial < cfg.Trials; trial++ {
			rng := trialRNG(cfg.Seed+18000, 0, trial)
			r, err := workload.Synthetic(rng, workload.SyntheticConfig{S: cfg.S, N: cfg.N, Z: cfg.Z})
			if err != nil {
				return nil, err
			}
			v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), p, cfg.B))
			if err != nil {
				return nil, err
			}
			pred := estimator.In("category", pickValues(rng, meta.Discrete["category"].Domain, cfg.L)...)
			truth, err := exact.Count(r, pred)
			if err != nil {
				return nil, err
			}
			est := &estimator.Estimator{Meta: meta}
			got, err := est.Count(v, pred)
			if err != nil {
				return nil, err
			}
			col.add(SeriesPrivateClean, stats.RelativeError(got.Value, truth.Value))
		}
		errPct := col.meanPct()[SeriesPrivateClean]
		t.Points = append(t.Points, Point{X: p, Values: map[string]float64{
			"attacker advantage %":         adv * 100,
			"epsilon":                      privacy.EpsilonDiscrete(p),
			"count error % (PrivateClean)": errPct,
		}})
	}
	return t, nil
}
