package privacy

import (
	"errors"
	"math"
	"testing"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
)

func clientMeta() *ViewMeta {
	return &ViewMeta{
		Discrete: map[string]DiscreteMeta{
			"major": {Name: "major", P: 0.5, Domain: []string{"CS", "EE", "ME"}},
		},
		Numeric: map[string]NumericMeta{
			"score": {Name: "score", B: 5, Delta: 50},
		},
		Rows: 100,
	}
}

func TestPrivatizeRecordDeterministic(t *testing.T) {
	meta := clientMeta()
	disc := map[string]string{"major": "CS"}
	num := map[string]float64{"score": 42}
	a, err := PrivatizeRecord(StreamRand(7, 3), meta, disc, num)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PrivatizeRecord(StreamRand(7, 3), meta, disc, num)
	if err != nil {
		t.Fatal(err)
	}
	if a.Discrete["major"] != b.Discrete["major"] || a.Numeric["score"] != b.Numeric["score"] {
		t.Fatalf("same stream produced different reports: %+v vs %+v", a, b)
	}
	if a.Numeric["score"] == 42 {
		t.Fatalf("score survived Laplace(5) unperturbed — suspicious draw")
	}
}

func TestPrivatizeRecordNoNoiseCorner(t *testing.T) {
	meta := &ViewMeta{
		Discrete: map[string]DiscreteMeta{"major": {P: 0, Domain: []string{"CS", "EE"}}},
		Numeric:  map[string]NumericMeta{"score": {B: 0}},
	}
	rep, err := PrivatizeRecord(StreamRand(1, 0), meta, map[string]string{"major": "EE"}, map[string]float64{"score": 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Discrete["major"] != "EE" {
		t.Fatalf("p=0 must keep the value, got %q", rep.Discrete["major"])
	}
	if rep.Numeric["score"] != 3 {
		t.Fatalf("b=0 must keep the value, got %v", rep.Numeric["score"])
	}
}

func TestPrivatizeRecordMissingCells(t *testing.T) {
	meta := clientMeta()
	rep, err := PrivatizeRecord(StreamRand(1, 0), meta, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A missing discrete cell is treated as NULL and still randomized; with
	// p=0.5 it either stays NULL or lands in the domain.
	v := rep.Discrete["major"]
	if v != relation.Null && v != "CS" && v != "EE" && v != "ME" {
		t.Fatalf("missing discrete randomized to %q, outside NULL+domain", v)
	}
	if _, ok := rep.Numeric["score"]; ok {
		t.Fatalf("missing numeric cell must stay missing, got %v", rep.Numeric["score"])
	}
	// NaN behaves like absent.
	rep, err = PrivatizeRecord(StreamRand(1, 0), meta, nil, map[string]float64{"score": math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Numeric["score"]; ok {
		t.Fatalf("NaN numeric cell must stay missing")
	}
}

func TestPrivatizeRecordRejectsUncoveredAttr(t *testing.T) {
	meta := clientMeta()
	if _, err := PrivatizeRecord(StreamRand(1, 0), meta, map[string]string{"ssn": "123"}, nil); faults.Kind(err) != faults.ErrBadParams {
		t.Fatalf("raw discrete attribute must be refused, got %v", err)
	}
	if _, err := PrivatizeRecord(StreamRand(1, 0), meta, nil, map[string]float64{"salary": 1}); faults.Kind(err) != faults.ErrBadParams {
		t.Fatalf("raw numeric attribute must be refused, got %v", err)
	}
	if _, err := PrivatizeRecord(StreamRand(1, 0), meta, nil, map[string]float64{"score": math.Inf(1)}); faults.Kind(err) != faults.ErrBadInput {
		t.Fatalf("infinite cell must be refused, got %v", err)
	}
}

// TestPrivatizeRecordFlipRate checks the randomized-response channel: over
// many records with p=0.5 on a 2-value domain, the true value must survive
// with probability 1-p+p/N = 0.75 (within 3 sigma).
func TestPrivatizeRecordFlipRate(t *testing.T) {
	meta := &ViewMeta{
		Discrete: map[string]DiscreteMeta{"bit": {P: 0.5, Domain: []string{"a", "b"}}},
	}
	const n = 20000
	kept := 0
	for i := 0; i < n; i++ {
		rep, err := PrivatizeRecord(StreamRand(11, i), meta, map[string]string{"bit": "a"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Discrete["bit"] == "a" {
			kept++
		}
	}
	want, sigma := 0.75, math.Sqrt(0.75*0.25/float64(n))
	if got := float64(kept) / n; math.Abs(got-want) > 3*sigma {
		t.Fatalf("keep rate %v, want %v +/- %v", got, want, 3*sigma)
	}
}

// TestPrivatizeRecordFlipRatePerMechanism pins the client-path keep rate for
// every mechanism name. The keep probabilities differ per name at the same
// p — GRR keeps with 1-p+p/n (a resample can land home), k-RR and rrbin with
// exactly 1-p — so a client path that sampled at the written p instead of
// the mapped one shifts the rate by whole sigmas.
func TestPrivatizeRecordFlipRatePerMechanism(t *testing.T) {
	const n = 20000
	const p = 0.4
	for _, tc := range []struct {
		mech   string
		domain []string
		keep   float64
	}{
		{MechGRR, []string{"a", "b", "c", "d"}, 1 - p + p/4},
		{MechKRR, []string{"a", "b", "c", "d"}, 1 - p},
		{MechRRBin, []string{"a", "b"}, 1 - p},
	} {
		meta := &ViewMeta{
			Discrete: map[string]DiscreteMeta{"bit": {P: p, Domain: tc.domain, Mechanism: tc.mech}},
		}
		kept := 0
		for i := 0; i < n; i++ {
			rep, err := PrivatizeRecord(StreamRand(13, i), meta, map[string]string{"bit": "a"}, nil)
			if err != nil {
				t.Fatalf("%s: %v", tc.mech, err)
			}
			if rep.Discrete["bit"] == "a" {
				kept++
			}
		}
		sigma := math.Sqrt(tc.keep * (1 - tc.keep) / float64(n))
		if got := float64(kept) / n; math.Abs(got-tc.keep) > 4*sigma {
			t.Errorf("%s: keep rate %v, want %v +/- %v", tc.mech, got, tc.keep, 4*sigma)
		}
	}
}

// TestPrivatizeRecordDeterministicPerMechanism: the same per-record stream
// must reproduce the same report under every mechanism — reposting after a
// crash depends on it.
func TestPrivatizeRecordDeterministicPerMechanism(t *testing.T) {
	for _, mech := range MechanismNames() {
		domain := []string{"CS", "EE", "ME"}
		if mech == MechRRBin {
			domain = []string{"no", "yes"}
		}
		meta := &ViewMeta{
			Discrete: map[string]DiscreteMeta{"major": {Name: "major", P: 0.5, Domain: domain, Mechanism: mech}},
			Numeric:  map[string]NumericMeta{"score": {Name: "score", B: 5, Delta: 50}},
			Rows:     100,
		}
		disc := map[string]string{"major": domain[0]}
		num := map[string]float64{"score": 42}
		a, err := PrivatizeRecord(StreamRand(7, 3), meta, disc, num)
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		b, err := PrivatizeRecord(StreamRand(7, 3), meta, disc, num)
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if a.Discrete["major"] != b.Discrete["major"] || a.Numeric["score"] != b.Numeric["score"] {
			t.Errorf("%s: same stream produced different reports: %+v vs %+v", mech, a, b)
		}
	}
}

func TestMechanismFingerprint(t *testing.T) {
	a, b := clientMeta(), clientMeta()
	if MechanismFingerprint(a) != MechanismFingerprint(b) {
		t.Fatal("identical mechanisms must fingerprint equal")
	}
	b.Rows = 9999
	if MechanismFingerprint(a) != MechanismFingerprint(b) {
		t.Fatal("Rows is not part of the channel and must not change the fingerprint")
	}
	cases := []func(*ViewMeta){
		func(m *ViewMeta) { d := m.Discrete["major"]; d.P = 0.6; m.Discrete["major"] = d },
		func(m *ViewMeta) { d := m.Discrete["major"]; d.Domain = []string{"CS", "EE"}; m.Discrete["major"] = d },
		func(m *ViewMeta) { nm := m.Numeric["score"]; nm.B = 6; m.Numeric["score"] = nm },
		func(m *ViewMeta) { nm := m.Numeric["score"]; nm.Delta = 51; m.Numeric["score"] = nm },
	}
	for i, mutate := range cases {
		m := clientMeta()
		mutate(m)
		if MechanismFingerprint(m) == MechanismFingerprint(a) {
			t.Fatalf("case %d: channel change did not change the fingerprint", i)
		}
	}
}

// TestMechanismFingerprintInjective: the canonical rendering length-prefixes
// every component, so mechanisms whose names or domain values embed delimiter
// bytes cannot collide. These pairs randomize differently and collided under
// a naive '|'-joined rendering.
func TestMechanismFingerprintInjective(t *testing.T) {
	pairs := [][2]*ViewMeta{
		{ // one two-valued domain vs two values glued with the old separator
			{Discrete: map[string]DiscreteMeta{"x": {P: 0.5, Domain: []string{"a|b"}}}},
			{Discrete: map[string]DiscreteMeta{"x": {P: 0.5, Domain: []string{"a", "b"}}}},
		},
		{ // domain value vs attribute name absorbing the delimiter
			{Discrete: map[string]DiscreteMeta{"x|0.5": {P: 0.5, Domain: []string{"a"}}}},
			{Discrete: map[string]DiscreteMeta{"x": {P: 0.5, Domain: []string{"a"}}}},
		},
		{ // record separator embedded in a domain value
			{Discrete: map[string]DiscreteMeta{"x": {P: 0.5, Domain: []string{"a\n"}}}},
			{Discrete: map[string]DiscreteMeta{"x": {P: 0.5, Domain: []string{"a"}}}},
		},
		{ // two domains whose concatenations agree
			{Discrete: map[string]DiscreteMeta{"x": {P: 0.5, Domain: []string{"ab", "c"}}}},
			{Discrete: map[string]DiscreteMeta{"x": {P: 0.5, Domain: []string{"a", "bc"}}}},
		},
	}
	for i, pair := range pairs {
		if MechanismFingerprint(pair[0]) == MechanismFingerprint(pair[1]) {
			t.Fatalf("pair %d: distinct mechanisms share a fingerprint", i)
		}
	}
}

// TestKRRRejectsOutOfDomain: the client path refuses a value outside the
// released domain under every mechanism name, as k-RR's own path once did,
// before any draw. GRR used to ship such a value verbatim with probability
// 1-p, an output no in-domain input can produce, so no finite epsilon
// covered it. In-domain values still draw exactly as GRR always has.
func TestKRRRejectsOutOfDomain(t *testing.T) {
	for _, mech := range MechanismNames() {
		domain := []string{"CS", "EE", "ME"}
		if mech == MechRRBin {
			domain = []string{"CS", "EE"}
		}
		meta := &ViewMeta{Discrete: map[string]DiscreteMeta{"major": {Name: "major", P: 0.25, Domain: domain, Mechanism: mech}}}
		_, err := PrivatizeRecord(noDraws{t}, meta, map[string]string{"major": "History"}, nil)
		if !errors.Is(err, faults.ErrBadInput) {
			t.Errorf("%s: out-of-domain value: %v, want ErrBadInput", mech, err)
		}
		q, err := GRRP(mech, 0.25, len(domain))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			rep, err := PrivatizeRecord(StreamRand(5, i), meta, map[string]string{"major": "EE"}, nil)
			if err != nil {
				t.Fatalf("%s: in-domain value: %v", mech, err)
			}
			want, rng := "EE", StreamRand(5, i)
			if rng.Float64() < q {
				want = domain[rng.Intn(len(domain))]
			}
			if got := rep.Discrete["major"]; got != want {
				t.Fatalf("%s record %d: reported %q, GRR at the mapped p draws %q", mech, i, got, want)
			}
		}
	}
}

// noDraws fails the test on any draw.
type noDraws struct{ t *testing.T }

func (r noDraws) Float64() float64 { r.t.Fatal("unexpected Float64 draw"); return 0 }
func (r noDraws) Intn(int) int     { r.t.Fatal("unexpected Intn draw"); return 0 }
