package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Fatal("want error for n=0")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Fatal("want error for negative z")
	}
	if _, err := NewZipf(10, math.NaN()); err == nil {
		t.Fatal("want error for NaN z")
	}
	if _, err := NewZipf(10, math.Inf(1)); err == nil {
		t.Fatal("want error for Inf z")
	}
}

func TestZipfProbsSumToOne(t *testing.T) {
	z, err := NewZipf(25, 2)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for k := 0; k < 25; k++ {
		p := prob(z, k)
		if p < 0 {
			t.Fatalf("Prob(%d) = %v < 0", k, p)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("probabilities sum to %v", total)
	}
}

func TestZipfZeroIsUniform(t *testing.T) {
	z, err := NewZipf(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if math.Abs(prob(z, k)-0.25) > 1e-12 {
			t.Fatalf("Prob(%d) = %v, want 0.25", k, prob(z, k))
		}
	}
}

func TestZipfMonotoneDecreasing(t *testing.T) {
	z, err := NewZipf(50, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < 50; k++ {
		if prob(z, k) > prob(z, k-1)+1e-15 {
			t.Fatalf("Prob(%d)=%v > Prob(%d)=%v", k, prob(z, k), k-1, prob(z, k-1))
		}
	}
}

func TestZipfSampleFrequencies(t *testing.T) {
	z, err := NewZipf(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const n = 200000
	counts := make([]int, 10)
	for i := 0; i < n; i++ {
		k := z.Sample(rng)
		if k < 0 || k >= 10 {
			t.Fatalf("sample %d out of range", k)
		}
		counts[k]++
	}
	for k := 0; k < 10; k++ {
		got := float64(counts[k]) / n
		if math.Abs(got-prob(z, k)) > 0.01 {
			t.Fatalf("freq(%d) = %v, want ~%v", k, got, prob(z, k))
		}
	}
}

// Property: for any valid (n, z), the CDF is non-decreasing and ends at 1.
func TestZipfCDFProperty(t *testing.T) {
	f := func(nRaw uint8, zRaw float64) bool {
		n := int(nRaw%100) + 1
		z := math.Mod(math.Abs(zRaw), 4)
		if math.IsNaN(z) {
			z = 0
		}
		zf, err := NewZipf(n, z)
		if err != nil {
			return false
		}
		prev := 0.0
		for k := 0; k < n; k++ {
			prev += prob(zf, k)
		}
		return math.Abs(prev-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// prob is the probability Sample gives rank k, read off the sampler's CDF.
func prob(zf *Zipf, k int) float64 {
	if k == 0 {
		return zf.cdf[0]
	}
	return zf.cdf[k] - zf.cdf[k-1]
}
