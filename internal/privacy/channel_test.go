package privacy

import (
	"math"
	"math/rand"
	"testing"
)

// TestRandomizedResponseChannelChiSquare runs a goodness-of-fit test of the
// empirical response channel against its specification: for a fixed input
// value over a 4-value domain at p, the output distribution must be
// (1-p+p/4) on the input value and p/4 on each other value. The chi-square
// statistic with 3 degrees of freedom is compared against the 99.9%
// critical value, so the test is both sensitive and stable.
func TestRandomizedResponseChannelChiSquare(t *testing.T) {
	const n = 200000
	domain := []string{"a", "b", "c", "d"}
	for _, p := range []float64{0.1, 0.3, 0.6} {
		rng := rand.New(rand.NewSource(int64(1000 * p)))
		col := make([]string, n)
		for i := range col {
			col[i] = "a"
		}
		out, err := RandomizedResponse(rng, col, domain, p)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]float64{}
		for _, v := range out {
			counts[v]++
		}
		expected := map[string]float64{
			"a": n * (1 - p + p/4),
			"b": n * p / 4,
			"c": n * p / 4,
			"d": n * p / 4,
		}
		chi2 := 0.0
		for _, v := range domain {
			d := counts[v] - expected[v]
			chi2 += d * d / expected[v]
		}
		// Critical value of chi-square with 3 dof at 99.9%: 16.27.
		if chi2 > 16.27 {
			t.Fatalf("p=%v: chi-square = %v exceeds the 99.9%% critical value", p, chi2)
		}
	}
}

// TestLaplaceNoiseDistributionChiSquare bins Laplace(0, b) samples into
// quantile-equal cells derived from the analytic CDF and checks uniform
// cell occupancy.
func TestLaplaceNoiseDistributionChiSquare(t *testing.T) {
	const n = 200000
	const b = 3.0
	const cells = 10
	rng := rand.New(rand.NewSource(99))
	// Laplace CDF: F(x) = 1/2 exp(x/b) for x<0; 1 - 1/2 exp(-x/b) for x>=0.
	cdf := func(x float64) float64 {
		if x < 0 {
			return 0.5 * math.Exp(x/b)
		}
		return 1 - 0.5*math.Exp(-x/b)
	}
	counts := make([]float64, cells)
	col := make([]float64, n)
	out := append([]float64(nil), col...)
	if err := LaplacePerturbInPlace(rng, out, b); err != nil {
		t.Fatal(err)
	}
	for _, x := range out {
		cell := int(cdf(x) * cells)
		if cell >= cells {
			cell = cells - 1
		}
		counts[cell]++
	}
	expected := float64(n) / cells
	chi2 := 0.0
	for _, c := range counts {
		d := c - expected
		chi2 += d * d / expected
	}
	// Critical value of chi-square with 9 dof at 99.9%: 27.88.
	if chi2 > 27.88 {
		t.Fatalf("chi-square = %v exceeds the 99.9%% critical value", chi2)
	}
}
