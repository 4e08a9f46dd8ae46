// Package dist provides the random data-distribution substrate for
// PrivateClean's workload generators: an exact Zipfian sampler over a finite
// domain (the paper's synthetic dataset draws both attributes from a Zipfian
// with scale parameter z).
//
// All samplers are deterministic given a *rand.Rand so experiments are
// reproducible.
package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Zipf samples ranks {0, ..., N-1} with probability proportional to
// 1/(k+1)^z. Unlike math/rand's Zipf it supports z == 0 (uniform) and any
// z >= 0, which the paper's skew sweep (Figure 4, z in [0, 4]) requires.
type Zipf struct {
	cdf []float64 // cumulative probabilities, cdf[n-1] == 1
}

// NewZipf creates a Zipfian sampler over n ranks with exponent z >= 0.
func NewZipf(n int, z float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dist: zipf needs n > 0, got %d", n)
	}
	if z < 0 || math.IsNaN(z) || math.IsInf(z, 0) {
		return nil, fmt.Errorf("dist: zipf needs finite z >= 0, got %v", z)
	}
	cdf := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -z)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf}, nil
}

// Sample draws one rank in [0, n).
func (zf *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(zf.cdf, u)
}
