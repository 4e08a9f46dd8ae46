package privacy

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"privateclean/internal/faults"
)

// The mechanism registry contract: GRR resolves from both "" and "grr" and
// reproduces the pre-registry code paths bit-for-bit; k-RR and rrbin follow
// their papers' randomization rules; unknown names fail with a typed error;
// and the fingerprint separates mechanisms that share (p, domain).

func TestMechanismByName(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want DiscreteMech
	}{
		{"", grrMech{}},
		{MechGRR, grrMech{}},
		{MechKRR, krrMech{}},
		{MechRRBin, rrbinMech{}},
	} {
		mech, err := MechanismByName(tc.in)
		if err != nil {
			t.Fatalf("MechanismByName(%q): %v", tc.in, err)
		}
		if mech != tc.want {
			t.Errorf("MechanismByName(%q) = %T, want %T", tc.in, mech, tc.want)
		}
	}
}

func TestMechanismByNameUnknownTyped(t *testing.T) {
	_, err := MechanismByName("grr-naive")
	if err == nil {
		t.Fatal("unknown mechanism resolved")
	}
	if !errors.Is(err, ErrUnknownMechanism) {
		t.Errorf("err = %v, want ErrUnknownMechanism", err)
	}
	if !errors.Is(err, faults.ErrBadMeta) {
		t.Errorf("err = %v, want faults.ErrBadMeta", err)
	}
	if !strings.Contains(err.Error(), "grr-naive") {
		t.Errorf("error %q does not name the offending mechanism", err)
	}
}

func TestCanonicalMechanismName(t *testing.T) {
	if got := CanonicalMechanismName(""); got != MechGRR {
		t.Errorf("CanonicalMechanismName(\"\") = %q", got)
	}
	if got := CanonicalMechanismName(MechKRR); got != MechKRR {
		t.Errorf("CanonicalMechanismName(krr) = %q", got)
	}
}

func TestMechanismNames(t *testing.T) {
	names := MechanismNames()
	if len(names) != 3 {
		t.Fatalf("MechanismNames() = %v", names)
	}
	for _, name := range names {
		if _, err := MechanismByName(name); err != nil {
			t.Errorf("listed mechanism %q does not resolve: %v", name, err)
		}
	}
}

// TestGRRChannelBitIdentity: the GRR channel constants must be computed with
// exactly the float expressions the estimators used before the registry
// existed — (p*l/float64(n), 1-p) — not any algebraic rearrangement.
func TestGRRChannelBitIdentity(t *testing.T) {
	mech, _ := MechanismByName("")
	for _, p := range []float64{0.1, 0.25, 1.0 / 3.0, 0.7} {
		for n := 2; n <= 7; n++ {
			for l := 1.0; l <= 3; l++ {
				tauN, denom := mech.Channel(p, n, l)
				if want := p * l / float64(n); tauN != want {
					t.Errorf("grr tauN(p=%v,n=%d,l=%v) = %v, want bit-identical %v", p, n, l, tauN, want)
				}
				if want := 1 - p; denom != want {
					t.Errorf("grr denom(p=%v) = %v, want bit-identical %v", p, denom, want)
				}
			}
		}
	}
}

// TestGRRRandomizeByteIdentity: the registry's GRR paths must consume the RNG
// stream identically to the original package-level functions.
func TestGRRRandomizeByteIdentity(t *testing.T) {
	mech, _ := MechanismByName(MechGRR)
	domain := []string{"a", "b", "c", "d"}
	const p = 0.37

	col1 := make([]string, 500)
	col2 := make([]string, 500)
	for i := range col1 {
		col1[i] = domain[i%len(domain)]
		col2[i] = col1[i]
	}
	if err := RandomizedResponseInPlace(rand.New(rand.NewSource(42)), col1, domain, p); err != nil {
		t.Fatal(err)
	}
	if err := mech.RandomizeInPlace(rand.New(rand.NewSource(42)), col2, domain, p); err != nil {
		t.Fatal(err)
	}
	for i := range col1 {
		if col1[i] != col2[i] {
			t.Fatalf("row %d: legacy %q, registry %q", i, col1[i], col2[i])
		}
	}
}

// scriptedRand forces the resample branch and returns a scripted Intn result,
// so per-value randomization rules can be checked exhaustively.
type scriptedRand struct {
	f float64
	j int
}

func (s scriptedRand) Float64() float64 { return s.f }
func (s scriptedRand) Intn(n int) int {
	if s.j >= n {
		panic("scripted j out of range")
	}
	return s.j
}

// TestKRRResampleExcludesCurrent: when k-RR resamples, the replacement is
// never the input value, and the exclusion shift maps Intn(n-1) uniformly
// onto the other n-1 values.
func TestKRRResampleExcludesCurrent(t *testing.T) {
	mech, _ := MechanismByName(MechKRR)
	domain := []string{"a", "b", "c", "d", "e"}
	for cur, v := range domain {
		seen := map[string]bool{}
		for j := 0; j < len(domain)-1; j++ {
			got, err := mech.RandomizeValue(scriptedRand{f: 0, j: j}, v, domain, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if got == v {
				t.Errorf("krr resample of %q (index %d) with j=%d returned the input", v, cur, j)
			}
			seen[got] = true
		}
		if len(seen) != len(domain)-1 {
			t.Errorf("krr resample of %q covered %d values, want %d", v, len(seen), len(domain)-1)
		}
	}
}

func TestKRRRejectsOutOfDomain(t *testing.T) {
	mech, _ := MechanismByName(MechKRR)
	domain := []string{"a", "b", "c"}
	if _, err := mech.RandomizeValue(rand.New(rand.NewSource(1)), "zzz", domain, 0.2); !errors.Is(err, faults.ErrBadInput) {
		t.Errorf("RandomizeValue out-of-domain: %v, want ErrBadInput", err)
	}
	col := []string{"a", "zzz", "b"}
	if err := mech.RandomizeInPlace(fullResample{}, col, domain, 0.5); !errors.Is(err, faults.ErrBadInput) {
		t.Errorf("RandomizeInPlace out-of-domain: %v, want ErrBadInput", err)
	}
}

// fullResample drives resampleVisit to visit every index (Float64 always
// below p) and picks the first alternative at each.
type fullResample struct{}

func (fullResample) Float64() float64 { return 0 }
func (fullResample) Intn(n int) int   { return 0 }

func TestKRRValidateBounds(t *testing.T) {
	mech, _ := MechanismByName(MechKRR)
	if err := mech.Validate(0.5, 1); !errors.Is(err, faults.ErrBadParams) {
		t.Errorf("Validate(n=1): %v, want ErrBadParams", err)
	}
	if err := mech.Validate(0.9, 4); !errors.Is(err, faults.ErrBadParams) {
		t.Errorf("Validate(p > (n-1)/n): %v, want ErrBadParams", err)
	}
	if err := mech.Validate(0.75, 4); err != nil {
		t.Errorf("Validate(p = (n-1)/n): %v, want nil", err)
	}
}

func TestRRBinFlipDeterministic(t *testing.T) {
	mech, _ := MechanismByName(MechRRBin)
	domain := []string{"no", "yes"}
	// Forced resample flips to the other value without consuming an Intn
	// draw (scriptedRand with j=0 would panic only on Intn(0); rrbin must
	// not call Intn at all, so hand it a source that panics on any Intn).
	got, err := mech.RandomizeValue(noIntn{}, "no", domain, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if got != "yes" {
		t.Errorf("flip of \"no\" = %q", got)
	}
	got, err = mech.RandomizeValue(noIntn{}, "yes", domain, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if got != "no" {
		t.Errorf("flip of \"yes\" = %q", got)
	}
	if _, err := mech.RandomizeValue(noIntn{}, "maybe", domain, 0.4); !errors.Is(err, faults.ErrBadInput) {
		t.Errorf("out-of-domain flip: %v, want ErrBadInput", err)
	}
}

// noIntn forces the resample branch and fails the test if the mechanism
// consumes an Intn draw — rrbin's flip target is deterministic.
type noIntn struct{}

func (noIntn) Float64() float64 { return 0 }
func (noIntn) Intn(n int) int   { panic("rrbin must not draw Intn") }

func TestRRBinValidateBounds(t *testing.T) {
	mech, _ := MechanismByName(MechRRBin)
	if err := mech.Validate(0.2, 3); !errors.Is(err, faults.ErrBadParams) {
		t.Errorf("Validate(n=3): %v, want ErrBadParams", err)
	}
	if err := mech.Validate(0.6, 2); !errors.Is(err, faults.ErrBadParams) {
		t.Errorf("Validate(p>1/2): %v, want ErrBadParams", err)
	}
	if err := mech.Validate(0.5, 2); err != nil {
		t.Errorf("Validate(p=1/2): %v, want nil", err)
	}
}

// TestMechanismEpsilonChannelConsistency: for every mechanism, the exact
// epsilon must equal ln(Keep/Q) computed from the channel at l = 1 — the
// likelihood ratio a client's single value actually faces.
func TestMechanismEpsilonChannelConsistency(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    float64
		n    int
	}{
		{MechGRR, 0.2, 4}, {MechGRR, 0.5, 10}, {MechGRR, 0.3, 2},
		{MechKRR, 0.2, 4}, {MechKRR, 0.6, 10}, {MechKRR, 0.4, 2},
		{MechRRBin, 0.1, 2}, {MechRRBin, 0.45, 2},
	} {
		mech, err := MechanismByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		tauN, denom := mech.Channel(tc.p, tc.n, 1)
		want := math.Log((denom + tauN) / tauN)
		got := mech.Epsilon(tc.p, tc.n)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s eps(p=%v,n=%d) = %v, channel ratio gives %v", tc.name, tc.p, tc.n, got, want)
		}
	}
}

// TestPForEpsilonExactRoundTrip: inversion must round-trip through the exact
// epsilon for every mechanism and a grid of (eps, n).
func TestPForEpsilonExactRoundTrip(t *testing.T) {
	for _, eps := range []float64{0, 0.1, 0.5, 1, 2, 5} {
		for _, n := range []int{2, 3, 4, 10, 100} {
			p, err := PForEpsilonExact(eps, n)
			if err != nil {
				t.Fatalf("PForEpsilonExact(%v, %d): %v", eps, n, err)
			}
			if !(p > 0 && p <= 1) {
				t.Fatalf("PForEpsilonExact(%v, %d) = %v out of (0,1]", eps, n, p)
			}
			if got := EpsilonDiscreteExact(p, n); math.Abs(got-eps) > 1e-9 {
				t.Errorf("EpsilonDiscreteExact(PForEpsilonExact(%v, %d)) = %v", eps, n, got)
			}
		}
	}
}

func TestPForEpsilonExactRejectsBadInput(t *testing.T) {
	if _, err := PForEpsilonExact(-1, 4); !errors.Is(err, faults.ErrBadParams) {
		t.Errorf("eps<0: %v", err)
	}
	if _, err := PForEpsilonExact(math.NaN(), 4); !errors.Is(err, faults.ErrBadParams) {
		t.Errorf("NaN: %v", err)
	}
	if _, err := PForEpsilonExact(1, 1); !errors.Is(err, faults.ErrBadParams) {
		t.Errorf("n<2: %v", err)
	}
	p, err := PForEpsilonExact(math.Inf(1), 4)
	if err != nil || p != 0 {
		t.Errorf("+Inf: p=%v err=%v, want 0, nil", p, err)
	}
}

// TestDisclosureReportsExactEpsilon is the regression test for the
// understated-epsilon bug: MechanismFor's disclosure used EpsilonDiscrete(p)
// (the Lemma 1 constant, exact only at n = 3), so a 10-value GRR domain
// disclosed a smaller epsilon than the channel actually leaks.
func TestDisclosureReportsExactEpsilon(t *testing.T) {
	domain := []string{"0", "1", "2", "3", "4", "5", "6", "7", "8", "9"}
	const p = 0.3
	meta := &ViewMeta{
		Discrete: map[string]DiscreteMeta{
			"digit": {Name: "digit", P: p, Domain: domain},
		},
		Rows: 100,
	}
	mech := MechanismFor(meta)
	d := mech.Discrete["digit"]
	exact := EpsilonDiscreteExact(p, 10)
	lemma1 := EpsilonDiscrete(p)
	if math.Abs(d.Epsilon-exact) > 1e-12 {
		t.Errorf("disclosed epsilon = %v, want exact %v", d.Epsilon, exact)
	}
	if math.Abs(d.EpsilonLemma1-lemma1) > 1e-12 {
		t.Errorf("disclosed epsilon_lemma1 = %v, want %v", d.EpsilonLemma1, lemma1)
	}
	if exact <= lemma1 {
		t.Fatalf("test premise broken: exact %v should exceed Lemma 1 %v at n=10", exact, lemma1)
	}
	// And the channel constants must match ln(Keep/Q).
	if got := math.Log(d.Keep / d.Q); math.Abs(got-d.Epsilon) > 1e-12 {
		t.Errorf("ln(Keep/Q) = %v, disclosed epsilon = %v", got, d.Epsilon)
	}
	// Non-GRR disclosures omit the Lemma 1 constant — it is a GRR
	// accounting artifact, meaningless for other channels.
	meta.Discrete["digit"] = DiscreteMeta{Name: "digit", P: 0.3, Domain: domain, Mechanism: MechKRR}
	if d := MechanismFor(meta).Discrete["digit"]; d.EpsilonLemma1 != 0 {
		t.Errorf("krr disclosure carries epsilon_lemma1 = %v, want omitted", d.EpsilonLemma1)
	}
}

// TestFingerprintSeparatesMechanisms is the regression test for the
// fingerprint-collision bug: GRR and k-RR over identical (p, domain)
// randomize differently, so their fingerprints must differ — otherwise a
// collector pinned to one would accept batches randomized under the other.
func TestFingerprintSeparatesMechanisms(t *testing.T) {
	base := func(mechName string) *ViewMeta {
		return &ViewMeta{
			Discrete: map[string]DiscreteMeta{
				"attr": {Name: "attr", P: 0.25, Domain: []string{"a", "b", "c"}, Mechanism: mechName},
			},
			Numeric: map[string]NumericMeta{
				"score": {Name: "score", B: 0.5, Delta: 4},
			},
			Rows: 10,
		}
	}
	fps := map[string]string{}
	for _, name := range []string{"", MechGRR, MechKRR} {
		fps[name] = MechanismFingerprint(base(name))
	}
	if fps[""] != fps[MechGRR] {
		t.Errorf("\"\" and %q fingerprints differ: the default must pin identically when spelled out", MechGRR)
	}
	if fps[""] == fps[MechKRR] {
		t.Error("grr and krr over identical (p, domain) share a fingerprint")
	}
	// Rows stays excluded: it describes one dataset, not the channel.
	other := base("")
	other.Rows = 99999
	if MechanismFingerprint(other) != fps[""] {
		t.Error("fingerprint depends on Rows")
	}
}

// TestDiscreteMetaJSONRoundTrip: legacy metadata (no Mechanism key) must
// decode as GRR, and GRR metadata must marshal without a Mechanism key so
// released meta.json files stay byte-identical.
func TestDiscreteMetaJSONRoundTrip(t *testing.T) {
	legacy := []byte(`{"Name":"major","P":0.2,"Domain":["a","b","c"]}`)
	var dm DiscreteMeta
	if err := json.Unmarshal(legacy, &dm); err != nil {
		t.Fatal(err)
	}
	mech, err := dm.Mech()
	if err != nil {
		t.Fatalf("legacy meta mechanism: %v", err)
	}
	if mech != (grrMech{}) {
		t.Errorf("legacy meta resolved to %T, want grr", mech)
	}
	out, err := json.Marshal(dm)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), "Mechanism") {
		t.Errorf("GRR meta marshals a Mechanism key: %s", out)
	}
	dm.Mechanism = MechKRR
	out, err = json.Marshal(dm)
	if err != nil {
		t.Fatal(err)
	}
	var back DiscreteMeta
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if back.Mechanism != MechKRR {
		t.Errorf("krr meta round-tripped to %q", back.Mechanism)
	}
}

// TestViewMetaValidateRejectsUnknownMechanism: a collector's config path
// (ViewMeta.Validate) must refuse metadata naming a mechanism the registry
// does not know, with the typed error pair the service maps to a 4xx.
func TestViewMetaValidateRejectsUnknownMechanism(t *testing.T) {
	meta := &ViewMeta{
		Discrete: map[string]DiscreteMeta{
			"attr": {Name: "attr", P: 0.2, Domain: []string{"a", "b"}, Mechanism: "exponential"},
		},
		Rows: 1,
	}
	err := meta.Validate()
	if !errors.Is(err, ErrUnknownMechanism) {
		t.Errorf("Validate: %v, want ErrUnknownMechanism", err)
	}
	if !errors.Is(err, faults.ErrBadMeta) {
		t.Errorf("Validate: %v, want faults.ErrBadMeta", err)
	}
}

// TestMechanismTags: checkpoint tags name the RNG draw pattern; GRR's must
// stay exactly the pre-registry constant.
func TestMechanismTags(t *testing.T) {
	want := map[string]string{MechGRR: "grr-skip/2", MechKRR: "krr-skip/2", MechRRBin: "rrbin-skip/1"}
	for name, tag := range want {
		mech, _ := MechanismByName(name)
		if got := mech.Tag(); got != tag {
			t.Errorf("%s tag = %q, want %q", name, got, tag)
		}
	}
}
