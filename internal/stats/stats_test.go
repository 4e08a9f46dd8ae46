package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	got, err := Mean([]float64{2, 4, math.NaN(), 6})
	if err != nil || got != 4 {
		t.Fatalf("Mean = %v, %v", got, err)
	}
	if _, err := Mean(nil); err != ErrEmpty {
		t.Fatalf("Mean(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Mean([]float64{math.NaN()}); err != ErrEmpty {
		t.Fatalf("Mean(NaN) err = %v, want ErrEmpty", err)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	v, err := Variance([]float64{1, 1, 1})
	if err != nil || v != 0 {
		t.Fatalf("Variance = %v, %v", v, err)
	}
	v, err = Variance([]float64{0, 2})
	if err != nil || v != 1 {
		t.Fatalf("Variance = %v, want 1", v)
	}
	if _, err := Variance(nil); err == nil {
		t.Fatal("want error for empty variance")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, math.NaN(), -1, 7})
	if err != nil || lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v,%v,%v", lo, hi, err)
	}
	if _, _, err := MinMax([]float64{math.NaN()}); err != ErrEmpty {
		t.Fatalf("MinMax err = %v", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	q, err := Quantile(xs, 0.5)
	if err != nil || q != 3 {
		t.Fatalf("median = %v, %v", q, err)
	}
	q, err = Quantile(xs, 0)
	if err != nil || q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	q, err = Quantile(xs, 1)
	if err != nil || q != 5 {
		t.Fatalf("q1 = %v", q)
	}
	q, err = Quantile([]float64{1, 2}, 0.25)
	if err != nil || q != 1.25 {
		t.Fatalf("interpolated quantile = %v", q)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("want out-of-range error")
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Fatalf("err = %v", err)
	}
	if q, err := Quantile([]float64{7}, 0.9); err != nil || q != 7 {
		t.Fatalf("singleton quantile = %v, %v", q, err)
	}
}

func TestZScore(t *testing.T) {
	z, err := ZScore(0.95)
	if err != nil || math.Abs(z-1.959964) > 1e-4 {
		t.Fatalf("ZScore(0.95) = %v, %v", z, err)
	}
	z, err = ZScore(0.99)
	if err != nil || math.Abs(z-2.575829) > 1e-4 {
		t.Fatalf("ZScore(0.99) = %v", z)
	}
	for _, bad := range []float64{0, 1, -0.5, 1.5} {
		if _, err := ZScore(bad); err == nil {
			t.Fatalf("ZScore(%v) should fail", bad)
		}
	}
}

// ZScore inverts the standard normal CDF: P(|Z| <= ZScore(c)) == c.
func TestZScoreCDFInverseProperty(t *testing.T) {
	cdf := func(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }
	f := func(u float64) bool {
		c := math.Mod(math.Abs(u), 0.98) + 0.01 // confidence in (0.01, 0.99)
		z, err := ZScore(c)
		if err != nil {
			return false
		}
		got := cdf(z) - cdf(-z)
		return math.Abs(got-c) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLaplaceZeroScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := Laplace(rng, 5, 0); got != 5 {
		t.Fatalf("Laplace(mu,0) = %v, want mu", got)
	}
}

func TestLaplaceMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	const mu, b = 3.0, 2.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := Laplace(rng, mu, b)
		sum += x
		sumSq += (x - mu) * (x - mu)
	}
	mean := sum / n
	variance := sumSq / n
	if math.Abs(mean-mu) > 0.05 {
		t.Fatalf("sample mean = %v, want ~%v", mean, mu)
	}
	if math.Abs(variance-LaplaceVariance(b)) > 0.3 {
		t.Fatalf("sample variance = %v, want ~%v", variance, LaplaceVariance(b))
	}
}

func TestLaplaceMedianIsMu(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 100001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = Laplace(rng, -1, 3)
	}
	med, err := Quantile(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(med-(-1)) > 0.08 {
		t.Fatalf("median = %v, want ~-1", med)
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(11, 10); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RelativeError = %v", got)
	}
	if got := RelativeError(0, 0); got != 0 {
		t.Fatalf("RelativeError(0,0) = %v", got)
	}
	if got := RelativeError(1, 0); !math.IsInf(got, 1) {
		t.Fatalf("RelativeError(1,0) = %v", got)
	}
	if got := RelativeError(-11, -10); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("negative want = %v", got)
	}
}

func TestMeanFinite(t *testing.T) {
	got, err := MeanFinite([]float64{1, math.Inf(1), 3, math.NaN()})
	if err != nil || got != 2 {
		t.Fatalf("MeanFinite = %v, %v", got, err)
	}
	if _, err := MeanFinite([]float64{math.Inf(1)}); err != ErrEmpty {
		t.Fatalf("err = %v", err)
	}
}

// Property: RelativeError is scale-invariant for positive scales.
func TestRelativeErrorScaleInvariant(t *testing.T) {
	f := func(got, want, scale float64) bool {
		if want == 0 || math.IsNaN(got) || math.IsNaN(want) || math.IsNaN(scale) {
			return true
		}
		if math.IsInf(got, 0) || math.IsInf(want, 0) || math.IsInf(scale, 0) {
			return true
		}
		// Clamp magnitudes so got*s and want*s cannot overflow.
		got = math.Mod(got, 1e6)
		want = math.Mod(want, 1e6)
		if want == 0 {
			return true
		}
		s := math.Mod(math.Abs(scale), 1e3) + 1
		a := RelativeError(got, want)
		b := RelativeError(got*s, want*s)
		if math.IsInf(a, 0) || a == 0 {
			return true
		}
		return math.Abs(a-b)/a < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
