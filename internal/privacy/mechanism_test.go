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

// The mechanism-name contract: every known name maps onto GRR's channel
// (GRR itself with no arithmetic on p, so its floats and draws are the
// pre-mapping ones); k-RR and binary RR keep their own admissible ranges and
// equal their papers' closed forms; unknown names fail with a typed error;
// and the fingerprint separates mechanisms that share (p, domain).

func TestMechanismByName(t *testing.T) {
	for _, name := range []string{"", MechGRR, MechKRR, MechRRBin} {
		if err := MechanismByName(name); err != nil {
			t.Fatalf("MechanismByName(%q): %v", name, err)
		}
	}
}

func TestMechanismByNameUnknownTyped(t *testing.T) {
	err := MechanismByName("grr-naive")
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
		if err := MechanismByName(name); err != nil {
			t.Errorf("listed mechanism %q is not known: %v", name, err)
		}
	}
}

// TestGRRChannelBitIdentity: the GRR channel constants must be computed with
// exactly the float expressions the estimators used before the mechanism
// names were mapped — (p*l/float64(n), 1-p) — not any algebraic
// rearrangement, and GRRP must hand GRR's p through untouched.
func TestGRRChannelBitIdentity(t *testing.T) {
	for _, p := range []float64{0.1, 0.25, 1.0 / 3.0, 0.7} {
		for n := 2; n <= 7; n++ {
			for l := 1.0; l <= 3; l++ {
				q, err := GRRP("", p, n)
				if err != nil {
					t.Fatal(err)
				}
				tauN, denom := Channel(q, n, l)
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

// TestGRRRandomizeByteIdentity: sampling at GRRP's p for GRR must consume
// the RNG stream identically to the original package-level function.
func TestGRRRandomizeByteIdentity(t *testing.T) {
	domain := []string{"a", "b", "c", "d"}
	const p = 0.37

	col1 := make([]string, 500)
	col2 := make([]string, 500)
	for i := range col1 {
		col1[i] = domain[i%len(domain)]
		col2[i] = col1[i]
	}
	col1, err := RandomizedResponse(rand.New(rand.NewSource(42)), col1, domain, p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := GRRP(MechGRR, p, len(domain))
	if err != nil {
		t.Fatal(err)
	}
	if col2, err = RandomizedResponse(rand.New(rand.NewSource(42)), col2, domain, q); err != nil {
		t.Fatal(err)
	}
	for i := range col1 {
		if col1[i] != col2[i] {
			t.Fatalf("row %d: legacy %q, mapped %q", i, col1[i], col2[i])
		}
	}
}

func TestKRRValidateBounds(t *testing.T) {
	if err := checkP(MechKRR, 0.5, 1); !errors.Is(err, faults.ErrBadParams) {
		t.Errorf("Validate(n=1): %v, want ErrBadParams", err)
	}
	if err := checkP(MechKRR, 0.9, 4); !errors.Is(err, faults.ErrBadParams) {
		t.Errorf("Validate(p > (n-1)/n): %v, want ErrBadParams", err)
	}
	if err := checkP(MechKRR, 0.75, 4); err != nil {
		t.Errorf("Validate(p = (n-1)/n): %v, want nil", err)
	}
}

func TestRRBinValidateBounds(t *testing.T) {
	if err := checkP(MechRRBin, 0.2, 3); !errors.Is(err, faults.ErrBadParams) {
		t.Errorf("Validate(n=3): %v, want ErrBadParams", err)
	}
	if err := checkP(MechRRBin, 0.6, 2); !errors.Is(err, faults.ErrBadParams) {
		t.Errorf("Validate(p>1/2): %v, want ErrBadParams", err)
	}
	if err := checkP(MechRRBin, 0.5, 2); err != nil {
		t.Errorf("Validate(p=1/2): %v, want nil", err)
	}
}

// TestMechanismEpsilonChannelConsistency: for every mechanism, the exact
// epsilon must equal ln(Keep/Q) computed from the mapped channel at l = 1 —
// the likelihood ratio a client's single value actually faces.
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
		q, err := GRRP(tc.name, tc.p, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		tauN, denom := Channel(q, tc.n, 1)
		want := math.Log((denom + tauN) / tauN)
		got := DiscreteMeta{P: tc.p, Domain: make([]string, tc.n), Mechanism: tc.name}.Epsilon()
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
	if got := CanonicalMechanismName(dm.Mechanism); got != MechGRR {
		t.Errorf("legacy meta names mechanism %q, want grr", got)
	}
	if q, err := dm.GRRP(); err != nil || q != dm.P {
		t.Errorf("legacy meta GRRP = %v, %v; want p itself", q, err)
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

// TestMechanismTags: the checkpoint tag names the sampler's RNG draw
// pattern, which every mechanism name shares; it must stay exactly the
// constant every GRR checkpoint has carried.
func TestMechanismTags(t *testing.T) {
	if SamplerTag != "grr-skip/2" {
		t.Errorf("SamplerTag = %q, want %q", SamplerTag, "grr-skip/2")
	}
}

// closedForm is each mechanism's channel from its own paper, kept in test
// code as the reference GRRP is checked against: keep is the probability a
// value is reported as itself, move the probability it is reported as one
// given other value.
func closedForm(name string, p float64, n int) (keep, move float64) {
	switch name {
	case MechKRR: // Kairouz et al.: resample over the other n-1 values
		return 1 - p, p / float64(n-1)
	case MechRRBin: // Holohan et al.: flip to the other of two values
		return 1 - p, p
	default: // the paper's GRR: resample over all n values
		return 1 - p + p/float64(n), p / float64(n)
	}
}

// TestMappedChannelMatchesClosedForms: over n = 2…64 and a grid of
// admissible p′, GRR's channel at GRRP's p equals k-RR's closed form entry
// by entry — τ_n = l·move and τ_p = keep + (l−1)·move for every predicate
// width l ≤ n — and the attribute's epsilon equals ln(keep/move); binary RR
// is checked the same way at n = 2, and GRR against its own closed form.
func TestMappedChannelMatchesClosedForms(t *testing.T) {
	const steps = 40
	type row struct {
		name string
		n    int
		max  float64
	}
	var rows []row
	for n := 2; n <= 64; n++ {
		rows = append(rows, row{MechKRR, n, float64(n-1) / float64(n)}, row{MechGRR, n, 1})
	}
	rows = append(rows, row{MechRRBin, 2, 0.5})
	for _, r := range rows {
		for i := 0; i <= steps; i++ {
			p := r.max // exactly, where max*steps/steps can round above it
			if i < steps {
				p = r.max * float64(i) / steps
			}
			if err := checkP(r.name, p, r.n); err != nil {
				t.Fatalf("%s p=%v n=%d: grid point not admissible: %v", r.name, p, r.n, err)
			}
			q, err := GRRP(r.name, p, r.n)
			if err != nil {
				t.Fatal(err)
			}
			keep, move := closedForm(r.name, p, r.n)
			for l := 0; l <= r.n; l++ {
				tauN, denom := Channel(q, r.n, float64(l))
				wantN, wantP := float64(l)*move, keep+float64(l-1)*move
				if math.Abs(tauN-wantN) > 1e-15 || math.Abs(tauN+denom-wantP) > 1e-15 {
					t.Fatalf("%s p=%v n=%d l=%d: mapped (τ_n, τ_p) = (%v, %v), closed form (%v, %v)",
						r.name, p, r.n, l, tauN, tauN+denom, wantN, wantP)
				}
			}
			got := DiscreteMeta{P: p, Domain: make([]string, r.n), Mechanism: r.name}.Epsilon()
			want := math.Log(keep / move)
			if p == 0 {
				if !math.IsInf(got, 1) {
					t.Fatalf("%s p=0 n=%d: epsilon %v, want +Inf", r.name, r.n, got)
				}
				continue
			}
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("%s p=%v n=%d: epsilon %v, closed form %v", r.name, p, r.n, got, want)
			}
		}
	}
}

// TestEpsilonConstantDomainIsZero: a domain of at most one value is
// released perfectly at any p, so its exact epsilon is 0 — not +Inf, which
// would make a constant discrete column unbound the composed total.
func TestEpsilonConstantDomainIsZero(t *testing.T) {
	for _, p := range []float64{0, 0.2, 1} {
		for _, n := range []int{0, 1} {
			if got := EpsilonDiscreteExact(p, n); got != 0 {
				t.Errorf("EpsilonDiscreteExact(%v, %d) = %v, want 0", p, n, got)
			}
		}
	}
	meta := &ViewMeta{
		Discrete: map[string]DiscreteMeta{"one": {Name: "one", P: 0.2, Domain: []string{"x"}}},
		Numeric:  map[string]NumericMeta{"score": {Name: "score", B: 2, Delta: 4}},
		Rows:     10,
	}
	if got := meta.TotalEpsilon(); got != 2 {
		t.Errorf("TotalEpsilon with a one-value attribute = %v, want 2 (the numeric share alone)", got)
	}
}
