package privacy

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
)

func twoColSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "major", Kind: relation.Discrete},
		relation.Column{Name: "score", Kind: relation.Numeric},
	)
}

// TestLaplaceScaleRejected is the regression test for the silent-NaN bug
// class: out-of-range Laplace scales must fail with a typed error instead of
// leaking NaN/Inf into the released view, and the strict (pipeline) mode
// must also reject b <= 0.
func TestLaplaceScaleRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	col := []float64{1, 2, 3}
	for _, b := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := laplaceInPlace(rng, append([]float64(nil), col...), b); !errors.Is(err, faults.ErrBadParams) {
			t.Errorf("laplaceInPlace(b=%v) = %v, want ErrBadParams", b, err)
		}
	}
	// Strict validation rejects b <= 0 outright: a zero scale releases the
	// column unperturbed and the composed epsilon becomes +Inf.
	schema := twoColSchema()
	for _, b := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		params := Uniform(schema, 0.2, b)
		err := params.Validate(schema, true)
		if !errors.Is(err, faults.ErrBadParams) {
			t.Errorf("strict Validate(b=%v) = %v, want ErrBadParams", b, err)
		}
	}
}

func TestRandomizationProbabilityRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	domain := []string{"a", "b"}
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := RandomizedResponse(rng, []string{"a"}, domain, p); !errors.Is(err, faults.ErrBadParams) {
			t.Errorf("RandomizedResponse(p=%v) = %v, want ErrBadParams", p, err)
		}
	}
	schema := twoColSchema()
	for _, p := range []float64{-0.1, 1.5, math.NaN()} {
		params := Uniform(schema, p, 1)
		if err := params.Validate(schema, false); !errors.Is(err, faults.ErrBadParams) {
			t.Errorf("Validate(p=%v) = %v, want ErrBadParams", p, err)
		}
	}
	// Strict mode also rejects p == 0 (no randomization at all).
	params := Uniform(schema, 0, 1)
	if err := params.Validate(schema, true); !errors.Is(err, faults.ErrBadParams) {
		t.Errorf("strict Validate(p=0) = %v, want ErrBadParams", err)
	}
}

func TestValidateAcceptsSaneParams(t *testing.T) {
	schema := twoColSchema()
	params := Uniform(schema, 0.25, 2)
	if err := params.Validate(schema, false); err != nil {
		t.Fatalf("permissive: %v", err)
	}
	if err := params.Validate(schema, true); err != nil {
		t.Fatalf("strict: %v", err)
	}
	// Permissive mode still tolerates the no-noise corner used by the
	// experiment harness.
	loose := Uniform(schema, 0, 0)
	if err := loose.Validate(schema, false); err != nil {
		t.Fatalf("permissive p=b=0 should pass: %v", err)
	}
}

func TestValidateMissingEntries(t *testing.T) {
	schema := twoColSchema()
	missingP := Params{P: map[string]float64{}, B: map[string]float64{"score": 1}}
	if err := missingP.Validate(schema, false); !errors.Is(err, faults.ErrBadParams) {
		t.Errorf("missing p entry: %v", err)
	}
	missingB := Params{P: map[string]float64{"major": 0.2}, B: map[string]float64{}}
	if err := missingB.Validate(schema, false); !errors.Is(err, faults.ErrBadParams) {
		t.Errorf("missing b entry: %v", err)
	}
}

func TestViewMetaValidate(t *testing.T) {
	good := &ViewMeta{
		Discrete: map[string]DiscreteMeta{"major": {Name: "major", P: 0.2, Domain: []string{"a", "b"}}},
		Numeric:  map[string]NumericMeta{"score": {Name: "score", B: 2, Delta: 4}},
		Rows:     10,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("sane metadata rejected: %v", err)
	}
	bad := []*ViewMeta{
		{Rows: -1},
		{Discrete: map[string]DiscreteMeta{"major": {Name: "major", P: 1.5, Domain: []string{"a"}}}, Rows: 1},
		{Discrete: map[string]DiscreteMeta{"major": {Name: "major", P: math.NaN(), Domain: []string{"a"}}}, Rows: 1},
		{Discrete: map[string]DiscreteMeta{"major": {Name: "major", P: 0.2}}, Rows: 5},
		{Discrete: map[string]DiscreteMeta{"major": {Name: "other", P: 0.2, Domain: []string{"a"}}}, Rows: 1},
		{Discrete: map[string]DiscreteMeta{"major": {Name: "major", P: 0.2, Domain: []string{"b", "a"}}}, Rows: 1},
		{Discrete: map[string]DiscreteMeta{"major": {Name: "major", P: 0.2, Domain: []string{"a", "a"}}}, Rows: 1},
		{Numeric: map[string]NumericMeta{"score": {Name: "score", B: -2, Delta: 4}}},
		{Numeric: map[string]NumericMeta{"score": {Name: "score", B: 2, Delta: math.Inf(1)}}},
	}
	for i, m := range bad {
		if err := m.Validate(); !errors.Is(err, faults.ErrBadMeta) {
			t.Errorf("case %d: Validate() = %v, want ErrBadMeta", i, err)
		}
	}
}

// TestPrivatizeReleasedMetaValidates pins the invariant the fuzz target
// relies on: whatever Privatize releases passes ViewMeta.Validate.
func TestPrivatizeReleasedMetaValidates(t *testing.T) {
	schema := twoColSchema()
	r, err := relation.FromColumns(schema,
		map[string][]float64{"score": {1, 2, 3}},
		map[string][]string{"major": {"x", "y", "x"}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	_, meta, err := Privatize(rng, r, Uniform(schema, 0.2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := meta.Validate(); err != nil {
		t.Fatalf("released metadata fails validation: %v", err)
	}
}
