package privacy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"privateclean/internal/relation"
)

// allocate is AllocateEpsilon over Summarize(r).
func allocate(t *testing.T, r *relation.Relation, eps float64) (Params, error) {
	t.Helper()
	domains, _, deltas, err := Summarize(r)
	if err != nil {
		t.Fatal(err)
	}
	return AllocateEpsilon(r.Schema(), domains, deltas, eps)
}

func TestAllocateEpsilonUniform(t *testing.T) {
	r := testRel(t) // 1 discrete + 1 numeric
	params, err := allocate(t, r, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Each attribute receives eps/2 = 2, with the discrete share inverted
	// exactly against major's 4-value domain.
	p := params.P["major"]
	if got := EpsilonDiscreteExact(p, 4); math.Abs(got-2) > 1e-9 {
		t.Fatalf("discrete exact epsilon = %v, want 2", got)
	}
	b := params.B["score"]
	// score range is 4 (0..4): b = 4/2 = 2.
	if math.Abs(b-2) > 1e-9 {
		t.Fatalf("b = %v, want 2", b)
	}
	// Releasing with these params yields the requested total under exact
	// accounting; the paper's Lemma 1 accounting of the same release is
	// strictly smaller for major's 4-value domain.
	rng := rand.New(rand.NewSource(1))
	_, meta, err := Privatize(rng, r, params)
	if err != nil {
		t.Fatal(err)
	}
	if got := meta.TotalEpsilon(); math.Abs(got-4) > 1e-9 {
		t.Fatalf("TotalEpsilon = %v, want 4", got)
	}
	if got := lemma1Total(meta); got >= 4 {
		t.Fatalf("Lemma 1 total = %v, want < 4 for a 4-value domain", got)
	}
}

func TestAllocateEpsilonValidation(t *testing.T) {
	r := testRel(t)
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := allocate(t, r, bad); err == nil {
			t.Errorf("AllocateEpsilon(%v) should fail", bad)
		}
	}
}

// Property: for any positive budget, releasing with the allocated params
// composes back to exactly the requested epsilon under exact accounting,
// and to at most the requested epsilon under the paper's Lemma 1
// accounting (the Lemma 1 constant understates the exact eps whenever the
// domain has more than 3 values, and testRel's major has 4).
func TestAllocateEpsilonComposesProperty(t *testing.T) {
	r := testRel(t)
	rng := rand.New(rand.NewSource(2))
	f := func(raw float64) bool {
		eps := math.Mod(math.Abs(raw), 20) + 0.1
		params, err := allocate(t, r, eps)
		if err != nil {
			return false
		}
		_, meta, err := Privatize(rng, r, params)
		if err != nil {
			return false
		}
		if got := meta.TotalEpsilon(); math.Abs(got-eps) > 1e-6 {
			return false
		}
		return lemma1Total(meta) <= eps+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// lemma1Total composes a release under the paper's accounting: Lemma 1's
// ln(3/p - 2) per discrete attribute plus each numeric attribute's epsilon.
func lemma1Total(meta *ViewMeta) float64 {
	total := 0.0
	for _, m := range meta.Discrete {
		total += EpsilonDiscrete(m.P)
	}
	for _, m := range meta.Numeric {
		total += m.Epsilon()
	}
	return total
}
