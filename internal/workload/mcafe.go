package workload

import (
	"fmt"
	"math/rand"

	"privateclean/internal/dist"
	"privateclean/internal/relation"
)

// MCAFEConfig parameterizes the course-evaluation simulator standing in for
// the MCAFE dataset (Section 8.5): 406 student evaluations with an
// enthusiasm score (1-10) and a country code. The country distribution is
// dominated by the US with a long tail, so the distinct fraction is high
// (the paper reports 21%) — the hard regime for PrivateClean. The analysis
// task merges European country codes into one region for comparison against
// the US.
type MCAFEConfig struct {
	// Rows is the number of evaluations (paper: 406).
	Rows int
	// TailCountries is the number of non-US country codes in the pool.
	TailCountries int
	// USWeight is the probability a student is from the US.
	USWeight float64
	// MissingRate is the fraction of rows with a missing country.
	MissingRate float64
}

// WithDefaults fills zero fields.
func (c MCAFEConfig) WithDefaults() MCAFEConfig {
	if c.Rows == 0 {
		c.Rows = 406
	}
	if c.TailCountries == 0 {
		c.TailCountries = 90
	}
	if c.USWeight == 0 {
		c.USWeight = 0.5
	}
	if c.MissingRate == 0 {
		c.MissingRate = 0.02
	}
	return c
}

// MCAFESchema is the course-evaluation schema.
var MCAFESchema = relation.MustSchema(
	relation.Column{Name: "country", Kind: relation.Discrete},
	relation.Column{Name: "score", Kind: relation.Numeric},
)

// TailCountry renders the k-th non-US country code.
func TailCountry(k int) string { return fmt.Sprintf("C%02d", k) }

// IsEurope reports whether a country code is European in the simulator.
// It is the UDF the Section 8.5 queries use. Codes C00..C29 are European.
func IsEurope(code string) bool {
	if len(code) != 3 || code[0] != 'C' {
		return false
	}
	if code[1] < '0' || code[1] > '2' || code[2] < '0' || code[2] > '9' {
		return false
	}
	return true
}

// MCAFE generates the course-evaluation table. European students' scores
// run slightly lower than US students' on average, so the isEurope
// aggregates are distinguishable from the global mean.
func MCAFE(rng *rand.Rand, cfg MCAFEConfig) (*relation.Relation, error) {
	cfg = cfg.WithDefaults()
	tailZipf, err := dist.NewZipf(cfg.TailCountries, 1.2)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	countries := make([]string, cfg.Rows)
	scores := make([]float64, cfg.Rows)
	for i := 0; i < cfg.Rows; i++ {
		var c string
		switch {
		case rng.Float64() < cfg.MissingRate:
			c = relation.Null
		case rng.Float64() < cfg.USWeight:
			c = "US"
		default:
			c = TailCountry(tailZipf.Sample(rng))
		}
		countries[i] = c
		base := 7.0
		if IsEurope(c) {
			base = 5.5
		} else if c != "US" {
			base = 6.2
		}
		s := base + rng.NormFloat64()*1.2
		if s < 1 {
			s = 1
		}
		if s > 10 {
			s = 10
		}
		scores[i] = s
	}
	return relation.FromColumns(MCAFESchema,
		map[string][]float64{"score": scores},
		map[string][]string{"country": countries})
}
