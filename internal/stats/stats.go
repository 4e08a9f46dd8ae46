// Package stats provides the statistical substrate used throughout
// PrivateClean: descriptive statistics, normal quantiles for CLT confidence
// intervals, a Laplace sampler for the Laplace mechanism, and relative-error
// metrics used by the experiment harness.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Rand is the randomness source the Laplace sampler needs. *math/rand.Rand
// satisfies it; tests can substitute deterministic sources.
type Rand interface {
	Float64() float64
}

// ErrEmpty is returned by descriptive statistics over empty inputs.
var ErrEmpty = errors.New("stats: empty input")

// Sum returns the sum of xs, skipping NaN entries.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			s += x
		}
	}
	return s
}

// Mean returns the arithmetic mean of xs, skipping NaN entries.
func Mean(xs []float64) (float64, error) {
	var s float64
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		s += x
		n++
	}
	if n == 0 {
		return 0, ErrEmpty
	}
	return s / float64(n), nil
}

// Variance returns the population variance of xs, skipping NaN entries.
func Variance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	var ss float64
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		d := x - m
		ss += d * d
		n++
	}
	return ss / float64(n), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// MinMax returns the minimum and maximum of xs, skipping NaN entries.
func MinMax(xs []float64) (lo, hi float64, err error) {
	first := true
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		if first {
			lo, hi = x, x
			first = false
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if first {
		return 0, 0, ErrEmpty
	}
	return lo, hi, nil
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. NaN entries are skipped.
func Quantile(xs []float64, q float64) (float64, error) {
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	clean := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			clean = append(clean, x)
		}
	}
	sort.Float64s(clean)
	return QuantileSorted(clean, q)
}

// QuantileSorted is Quantile over NaN-free xs already in ascending order,
// which it reads without copying.
func QuantileSorted(xs []float64, q float64) (float64, error) {
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) == 1 {
		return xs[0], nil
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo], nil
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac, nil
}

// HistQuantile returns the q-quantile of a binned distribution by inverting
// its cumulative histogram: counts[k] is the mass on [edges[k], edges[k+1])
// and the returned value interpolates linearly inside the bin the inverse
// CDF crosses (mass uniform within a bin). See HistQuantileBin for the
// variant that also reports which bin that is.
func HistQuantile(edges, counts []float64, q float64) (float64, error) {
	x, _, err := HistQuantileBin(edges, counts, q)
	return x, err
}

// HistQuantileBin is HistQuantile plus the index of the crossed bin, which
// the delta-method confidence interval needs (the local density is
// counts[bin]/width(bin)). Empty bins are skipped, so q = 0 lands on the
// left edge of the first non-empty bin and q = 1 on the right edge of the
// last. Counts must be finite and >= 0 (clamp estimated counts before
// calling); an all-zero histogram returns ErrEmpty.
func HistQuantileBin(edges, counts []float64, q float64) (float64, int, error) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	if len(counts) == 0 || len(edges) != len(counts)+1 {
		return 0, 0, fmt.Errorf("stats: histogram needs len(edges) == len(counts)+1 >= 2, got %d edges over %d counts", len(edges), len(counts))
	}
	total := 0.0
	for k, c := range counts {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return 0, 0, fmt.Errorf("stats: bin %d count %v must be finite and >= 0", k, c)
		}
		if edges[k+1] <= edges[k] {
			return 0, 0, fmt.Errorf("stats: edges must be strictly increasing (edge %d = %v, edge %d = %v)", k, edges[k], k+1, edges[k+1])
		}
		total += c
	}
	if total == 0 {
		return 0, 0, ErrEmpty
	}
	target := q * total
	cum, last := 0.0, -1
	for k, c := range counts {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			frac := (target - cum) / c
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return edges[k] + frac*(edges[k+1]-edges[k]), k, nil
		}
		cum += c
		last = k
	}
	// Floating-point shortfall at q near 1: the cumulative sum came up a few
	// ulps short of target. The answer is the right edge of the last
	// non-empty bin.
	return edges[last+1], last, nil
}

// ZScore returns z such that P(|Z| <= z) = confidence for a standard normal
// Z; e.g. ZScore(0.95) ~= 1.96. Confidence must be in (0, 1).
func ZScore(confidence float64) (float64, error) {
	if confidence <= 0 || confidence >= 1 {
		return 0, fmt.Errorf("stats: confidence %v out of (0,1)", confidence)
	}
	return math.Sqrt2 * math.Erfinv(confidence), nil
}

// NormalCDF returns P(Z <= x) for a standard normal Z.
func NormalCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// Laplace draws one sample from the Laplace(mu, b) distribution with density
// (1/2b) exp(-|x-mu|/b), via inverse-CDF sampling. b must be positive;
// b == 0 returns mu exactly (the no-noise degenerate case).
func Laplace(rng Rand, mu, b float64) float64 {
	if b == 0 {
		return mu
	}
	// u uniform on (-1/2, 1/2); avoid u == -1/2 exactly so Log stays finite.
	u := rng.Float64() - 0.5
	for u == -0.5 {
		u = rng.Float64() - 0.5
	}
	sign := 1.0
	if u < 0 {
		sign = -1.0
	}
	return mu - b*sign*math.Log(1-2*math.Abs(u))
}

// LaplaceVariance returns the variance 2b^2 of a Laplace(mu, b) sample.
func LaplaceVariance(b float64) float64 { return 2 * b * b }

// RelativeError returns |got - want| / |want|. When want == 0, it returns 0
// if got is also 0 and +Inf otherwise (the convention used when averaging
// error percentages in the experiment harness — such points are excluded).
func RelativeError(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// MeanFinite averages the finite entries of xs; it returns ErrEmpty when no
// finite entries exist. Used to aggregate per-trial error percentages where
// degenerate trials produce Inf/NaN.
func MeanFinite(xs []float64) (float64, error) {
	var s float64
	n := 0
	for _, x := range xs {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			continue
		}
		s += x
		n++
	}
	if n == 0 {
		return 0, ErrEmpty
	}
	return s / float64(n), nil
}
