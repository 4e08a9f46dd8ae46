package privacy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"privateclean/internal/relation"
)

func testRel(t *testing.T) *relation.Relation {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "major", Kind: relation.Discrete},
		relation.Column{Name: "score", Kind: relation.Numeric},
	)
	majors := make([]string, 400)
	scores := make([]float64, 400)
	for i := range majors {
		majors[i] = []string{"ME", "EE", "CS", "Math"}[i%4]
		scores[i] = float64(i % 5)
	}
	r, err := relation.FromColumns(schema,
		map[string][]float64{"score": scores},
		map[string][]string{"major": majors})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEpsilonDiscrete(t *testing.T) {
	if !math.IsInf(EpsilonDiscrete(0), 1) {
		t.Fatal("p=0 should be +Inf epsilon")
	}
	if got := EpsilonDiscrete(1); math.Abs(got-0) > 1e-12 {
		t.Fatalf("p=1 epsilon = %v, want 0", got)
	}
	// Lemma 1 worked value: p=0.25 -> ln(10).
	if got := EpsilonDiscrete(0.25); math.Abs(got-math.Log(10)) > 1e-12 {
		t.Fatalf("p=0.25 epsilon = %v, want ln(10)", got)
	}
}

func TestPForEpsilonInverts(t *testing.T) {
	for _, p := range []float64{0.05, 0.1, 0.3, 0.7, 1} {
		eps := EpsilonDiscrete(p)
		back, err := PForEpsilon(eps)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(back-p) > 1e-12 {
			t.Fatalf("PForEpsilon(EpsilonDiscrete(%v)) = %v", p, back)
		}
	}
	if p, err := PForEpsilon(math.Inf(1)); err != nil || p != 0 {
		t.Fatalf("PForEpsilon(Inf) = %v, %v", p, err)
	}
	if _, err := PForEpsilon(-1); err == nil {
		t.Fatal("want error for negative epsilon")
	}
}

// Epsilon is strictly decreasing in p (more randomization, more privacy).
func TestEpsilonDiscreteMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		pa := math.Mod(math.Abs(a), 0.98) + 0.01
		pb := math.Mod(math.Abs(b), 0.98) + 0.01
		if pa == pb {
			return true
		}
		lo, hi := pa, pb
		if lo > hi {
			lo, hi = hi, lo
		}
		return EpsilonDiscrete(lo) > EpsilonDiscrete(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEpsilonNumeric(t *testing.T) {
	if got := EpsilonNumeric(10, 5); got != 2 {
		t.Fatalf("EpsilonNumeric = %v", got)
	}
	if !math.IsInf(EpsilonNumeric(10, 0), 1) {
		t.Fatal("b=0 with range should be +Inf")
	}
	if got := EpsilonNumeric(0, 0); got != 0 {
		t.Fatalf("constant column should be eps 0, got %v", got)
	}
	b, err := BForEpsilon(10, 2)
	if err != nil || b != 5 {
		t.Fatalf("BForEpsilon = %v, %v", b, err)
	}
	if _, err := BForEpsilon(10, 0); err == nil {
		t.Fatal("want error for eps=0")
	}
}

func TestRandomizedResponseValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := RandomizedResponse(rng, []string{"a"}, []string{"a"}, -0.1); err == nil {
		t.Fatal("want error for p<0")
	}
	if _, err := RandomizedResponse(rng, []string{"a"}, []string{"a"}, 1.1); err == nil {
		t.Fatal("want error for p>1")
	}
	if _, err := RandomizedResponse(rng, []string{"a"}, nil, 0.5); err == nil {
		t.Fatal("want error for empty domain")
	}
	out, err := RandomizedResponse(rng, nil, nil, 0.5)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty column = %v, %v", out, err)
	}
}

func TestRandomizedResponseP0IsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	col := []string{"a", "b", "c"}
	out, err := RandomizedResponse(rng, col, []string{"a", "b", "c"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range col {
		if out[i] != col[i] {
			t.Fatalf("p=0 changed value %d", i)
		}
	}
}

// Randomized response always emits values from the domain, and never
// modifies its input.
func TestRandomizedResponseDomainClosedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(raw []uint8, pRaw float64) bool {
		domain := []string{"a", "b", "c", "d"}
		col := make([]string, len(raw))
		for i, v := range raw {
			col[i] = domain[int(v)%len(domain)]
		}
		orig := append([]string(nil), col...)
		p := math.Mod(math.Abs(pRaw), 1)
		out, err := RandomizedResponse(rng, col, domain, p)
		if err != nil {
			return false
		}
		inDomain := map[string]bool{"a": true, "b": true, "c": true, "d": true}
		for _, v := range out {
			if !inDomain[v] {
				return false
			}
		}
		for i := range col {
			if col[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomizedResponseFlipRate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 100000
	col := make([]string, n)
	for i := range col {
		col[i] = "a"
	}
	domain := []string{"a", "b", "c", "d"}
	p := 0.4
	out, err := RandomizedResponse(rng, col, domain, p)
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, v := range out {
		if v == "a" {
			kept++
		}
	}
	// P(stays "a") = 1-p + p/|domain| = 0.7
	got := float64(kept) / float64(n)
	if math.Abs(got-0.7) > 0.01 {
		t.Fatalf("keep rate = %v, want ~0.7", got)
	}
}

func TestLaplacePerturb(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	col := []float64{1, 2, math.NaN()}
	out := append([]float64(nil), col...)
	if err := laplaceInPlace(rng, out, 1); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(out[2]) {
		t.Fatal("NaN should stay NaN")
	}
	if out[0] == col[0] && out[1] == col[1] {
		t.Fatal("noise should perturb values (w.h.p.)")
	}
	if err := laplaceInPlace(rng, append([]float64(nil), col...), -1); err == nil {
		t.Fatal("want error for negative scale")
	}
	// b=0 is identity.
	out = []float64{7}
	if err := laplaceInPlace(rng, out, 0); err != nil || out[0] != 7 {
		t.Fatalf("b=0 = %v, %v", out, err)
	}
}

func TestLaplacePerturbZeroMean(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 200000
	col := make([]float64, n)
	for i := range col {
		col[i] = 10
	}
	out := append([]float64(nil), col...)
	if err := laplaceInPlace(rng, out, 5); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum/float64(n)-10) > 0.1 {
		t.Fatalf("mean = %v, want ~10", sum/float64(n))
	}
}

func TestPrivatize(t *testing.T) {
	r := testRel(t)
	rng := rand.New(rand.NewSource(2))
	v, meta, err := Privatize(rng, r, Uniform(r.Schema(), 0.2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if v.NumRows() != r.NumRows() {
		t.Fatal("row count changed")
	}
	dm, err := meta.DiscreteFor("major")
	if err != nil {
		t.Fatal(err)
	}
	if dm.P != 0.2 || dm.N() != 4 {
		t.Fatalf("meta = %+v", dm)
	}
	nm := meta.Numeric["score"]
	if nm.B != 3 || nm.Delta != 4 {
		t.Fatalf("numeric meta = %+v", nm)
	}
	if meta.Rows != 400 {
		t.Fatalf("meta rows = %d", meta.Rows)
	}
	// Source is unchanged.
	if r.MustNumeric("score")[0] != 0 {
		t.Fatal("source relation mutated")
	}
	// Private discrete values stay in the source domain.
	dom := map[string]bool{"ME": true, "EE": true, "CS": true, "Math": true}
	for _, val := range v.MustDiscrete("major") {
		if !dom[val] {
			t.Fatalf("private value %q outside domain", val)
		}
	}
	if _, err := meta.DiscreteFor("nope"); err == nil {
		t.Fatal("want error for unknown attribute")
	}
}

func TestPrivatizeMissingParams(t *testing.T) {
	r := testRel(t)
	rng := rand.New(rand.NewSource(2))
	if _, _, err := Privatize(rng, r, Params{P: map[string]float64{}, B: map[string]float64{"score": 1}}); err == nil {
		t.Fatal("want error for missing discrete parameter")
	}
	if _, _, err := Privatize(rng, r, Params{P: map[string]float64{"major": 0.1}, B: map[string]float64{}}); err == nil {
		t.Fatal("want error for missing numeric parameter")
	}
}

func TestTotalEpsilonComposition(t *testing.T) {
	r := testRel(t)
	rng := rand.New(rand.NewSource(2))
	_, meta, err := Privatize(rng, r, Uniform(r.Schema(), 0.25, 2))
	if err != nil {
		t.Fatal(err)
	}
	want := EpsilonDiscreteExact(0.25, 4) + EpsilonNumeric(4, 2)
	if got := meta.TotalEpsilon(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("TotalEpsilon = %v, want %v", got, want)
	}
	// A non-randomized attribute de-privatizes the relation (Theorem 1).
	_, meta, err = Privatize(rng, r, Uniform(r.Schema(), 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(meta.TotalEpsilon(), 1) {
		t.Fatal("p=0 attribute should make total epsilon infinite")
	}
}

func TestMinDatasetSize(t *testing.T) {
	// Example 3: p=0.25, N=25 distinct majors.
	s95, err := MinDatasetSize(25, 0.25, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s99, err := MinDatasetSize(25, 0.25, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// The closed-form bound S > (N/p) log(pN/alpha) gives 483 and 644; the
	// paper's Example 3 quotes 391 and 552 from a slightly different
	// simplification. Our bound is the (more conservative) printed formula.
	if math.Abs(s95-100*math.Log(125)) > 1e-9 {
		t.Fatalf("s95 = %v", s95)
	}
	if s99 <= s95 {
		t.Fatal("99% confidence needs more data than 95%")
	}
	if _, err := MinDatasetSize(0, 0.1, 0.05); err == nil {
		t.Fatal("want error for n=0")
	}
	if _, err := MinDatasetSize(10, -1, 0.05); err == nil {
		t.Fatal("want error for bad p")
	}
	if _, err := MinDatasetSize(10, 0.1, 0); err == nil {
		t.Fatal("want error for bad alpha")
	}
	if got, err := MinDatasetSize(10, 0, 0.05); err != nil || got != 0 {
		t.Fatalf("p=0 bound = %v, %v", got, err)
	}
	// Degenerate: pN <= alpha means any size works.
	if got, err := MinDatasetSize(1, 0.01, 0.5); err != nil || got != 0 {
		t.Fatalf("tiny-domain bound = %v, %v", got, err)
	}
}

func TestDomainPreservationProb(t *testing.T) {
	if got := DomainPreservationProb(1, 100, 0.5); got != 1 {
		t.Fatalf("single-value domain = %v", got)
	}
	if got := DomainPreservationProb(50, 0, 0.5); got != 0 {
		t.Fatalf("empty dataset = %v", got)
	}
	if got := DomainPreservationProb(50, 100000, 0.1); got < 0.999 {
		t.Fatalf("huge dataset = %v", got)
	}
	// Monotone in S.
	small := DomainPreservationProb(25, 200, 0.25)
	big := DomainPreservationProb(25, 2000, 0.25)
	if big < small {
		t.Fatalf("preservation prob not monotone: %v then %v", small, big)
	}
	// The bound at the Theorem 2 size is at least 1 - alpha.
	bound, err := MinDatasetSize(25, 0.25, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got := DomainPreservationProb(25, int(math.Ceil(bound)), 0.25); got < 0.95 {
		t.Fatalf("preservation prob at bound = %v, want >= 0.95", got)
	}
}

func TestCountErrorBound(t *testing.T) {
	b, err := CountErrorBound(1000, 0.1, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// z/(1-p) * sqrt(1/4S) = 1.96/0.9 * 0.0158 ~= 0.0344
	if math.Abs(b-0.03444) > 1e-3 {
		t.Fatalf("bound = %v", b)
	}
	if _, err := CountErrorBound(0, 0.1, 0.95); err == nil {
		t.Fatal("want error for S=0")
	}
	if _, err := CountErrorBound(100, 1, 0.95); err == nil {
		t.Fatal("want error for p=1")
	}
}

// tuneRel tunes from r's summary, as core.Provider does.
func tuneRel(r *relation.Relation, targetError, confidence float64) (Params, error) {
	_, _, deltas, err := Summarize(r)
	if err != nil {
		return Params{}, err
	}
	return Tune(r.Schema(), r.NumRows(), deltas, targetError, confidence)
}

func TestTune(t *testing.T) {
	r := testRel(t)
	params, err := tuneRel(r, 0.1, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	p := params.P["major"]
	// p = 1 - z sqrt(1/(4 S err^2)) with S=400, err=0.1: 1 - 1.96*0.25 = 0.51
	if math.Abs(p-0.51) > 0.01 {
		t.Fatalf("tuned p = %v", p)
	}
	if params.B["score"] <= 0 {
		t.Fatalf("tuned b = %v", params.B["score"])
	}
	// Unmeetable target.
	if _, err := tuneRel(r, 0.001, 0.95); err == nil {
		t.Fatal("want error for unmeetable target")
	}
	if _, err := tuneRel(r, -1, 0.95); err == nil {
		t.Fatal("want error for negative target")
	}
	empty := relation.New(r.Schema())
	if _, err := tuneRel(empty, 0.1, 0.95); err == nil {
		t.Fatal("want error for empty relation")
	}
}

// The tuned p always satisfies the analytic count error bound at the target.
func TestTuneMeetsBoundProperty(t *testing.T) {
	r := testRel(t)
	f := func(raw float64) bool {
		target := math.Mod(math.Abs(raw), 0.3) + 0.06
		params, err := tuneRel(r, target, 0.95)
		if err != nil {
			return true // target unmeetable for this S; fine
		}
		p := params.P["major"]
		if p >= 1 {
			return true
		}
		bound, err := CountErrorBound(r.NumRows(), p, 0.95)
		if err != nil {
			return false
		}
		return bound <= target*1.0001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Lemma 1 empirical check: the likelihood ratio of observing any output
// value under two different inputs is bounded by exp(eps) in the worst case
// (two-value domain).
func TestLemma1LikelihoodRatio(t *testing.T) {
	p := 0.25
	eps := EpsilonDiscrete(p)
	n := 2.0
	// P[out = a | in = a] = 1-p+p/n; P[out = a | in = b] = p/n
	keep := 1 - p + p/n
	flip := p / n
	ratio := keep / flip
	if ratio > math.Exp(eps)+1e-9 {
		t.Fatalf("likelihood ratio %v exceeds exp(eps) = %v", ratio, math.Exp(eps))
	}
	// Note: the exact two-value ratio is 2/p - 1 (= 7 at p = 0.25), while
	// Lemma 1's printed constant ln(3/p - 2) (= ln 10) is the three-value
	// point of the exact curve ln(N(1-p)/p + 1) — conservative for N <= 3,
	// an understatement for larger domains; see EXPERIMENTS.md and
	// EpsilonDiscreteExact.
	if math.Abs(ratio-(2/p-1)) > 1e-9 {
		t.Fatalf("exact ratio should be 2/p-1 = %v, got %v", 2/p-1, ratio)
	}
}

// laplaceInPlace is the checked one-column Laplace draw: the scale check
// and the perturbation the release path runs for every numeric column.
func laplaceInPlace(rng Rand, col []float64, b float64) error {
	if err := checkLaplace(b); err != nil {
		return err
	}
	perturb(rng, col, b)
	return nil
}
