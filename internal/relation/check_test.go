package relation

import (
	"errors"
	"slices"
	"testing"
)

func twoColRelation(t *testing.T) *Relation {
	t.Helper()
	schema := MustSchema(
		Column{Name: "d", Kind: Discrete},
		Column{Name: "x", Kind: Numeric},
	)
	r, err := FromColumns(schema,
		map[string][]float64{"x": {1, 2, 3}},
		map[string][]string{"d": {"a", "b", "a"}})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCheckIndexClean(t *testing.T) {
	r := twoColRelation(t)
	// No cached entry yet: nothing to check.
	if err := r.CheckIndex("d"); err != nil {
		t.Fatalf("before build: %v", err)
	}
	if _, err := r.DiscreteIndex("d"); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckIndex("d"); err != nil {
		t.Fatalf("after build: %v", err)
	}
	// Writes through the API invalidate, so the check stays clean.
	if err := r.SetDiscrete("d", 0, "c"); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckIndex("d"); err != nil {
		t.Fatalf("after SetDiscrete: %v", err)
	}
}

// TestCheckIndexMissedInvalidation is the regression test for the bug class
// the debug assertion exists for: code that rewrites a discrete column's
// backing slice in place without calling InvalidateIndex. The stale cached
// index must be detected, and invalidating must clear the condition.
func TestCheckIndexMissedInvalidation(t *testing.T) {
	r := twoColRelation(t)
	if _, err := r.DiscreteIndex("d"); err != nil {
		t.Fatal(err)
	}
	// Mutate the backing slice directly, bypassing SetDiscrete — the missed
	// invalidation.
	r.MustDiscrete("d")[0] = "zzz"
	err := r.CheckIndex("d")
	var stale *StaleIndexError
	if !errors.As(err, &stale) {
		t.Fatalf("CheckIndex = %v, want *StaleIndexError", err)
	}
	if stale.Column != "d" {
		t.Fatalf("stale column = %q, want %q", stale.Column, "d")
	}
	r.InvalidateIndex("d")
	if err := r.CheckIndex("d"); err != nil {
		t.Fatalf("after InvalidateIndex: %v", err)
	}
	// And the rebuilt index reflects the mutated data.
	ix, err := r.DiscreteIndex("d")
	if err != nil {
		t.Fatal(err)
	}
	if ix.Domain[ix.Codes[0]] != "zzz" {
		t.Fatalf("rebuilt index decodes row 0 to %q", ix.Domain[ix.Codes[0]])
	}
}

func TestCheckIndexDomainDrift(t *testing.T) {
	r := twoColRelation(t)
	if _, err := r.DiscreteIndex("d"); err != nil {
		t.Fatal(err)
	}
	// Collapse "b" into "a" in place: every code still decodes to some value,
	// but domain value "b" is no longer present — the subtle drift case.
	col := r.MustDiscrete("d")
	for i := range col {
		col[i] = "a"
	}
	var stale *StaleIndexError
	if err := r.CheckIndex("d"); !errors.As(err, &stale) {
		t.Fatalf("CheckIndex = %v, want *StaleIndexError", err)
	}
}

func TestFromBackingValidatesCodes(t *testing.T) {
	schema := MustSchema(Column{Name: "d", Kind: Discrete})
	good := &DiscreteIndex{Domain: []string{"a", "b"}, Codes: []uint32{0, 1, 0}}
	r, err := FromBacking(schema, 3, nil, nil, map[string]*DiscreteIndex{"d": good})
	if err != nil {
		t.Fatalf("valid codes: %v", err)
	}
	if want := []uint32{2, 1}; !slices.Equal(good.Counts, want) {
		t.Fatalf("Counts = %v, want %v", good.Counts, want)
	}
	if got := r.MustDiscrete("d"); !slices.Equal(got, []string{"a", "b", "a"}) {
		t.Fatalf("strings built from codes = %v", got)
	}
	if err := r.CheckIndex("d"); err != nil {
		t.Fatalf("stored index: %v", err)
	}
	cases := []struct {
		name string
		ix   *DiscreteIndex
	}{
		{"short codes", &DiscreteIndex{Domain: []string{"a"}, Codes: []uint32{0}}},
		{"unsorted domain", &DiscreteIndex{Domain: []string{"b", "a"}, Codes: []uint32{0, 1, 0}}},
		{"duplicate domain", &DiscreteIndex{Domain: []string{"a", "a"}, Codes: []uint32{0, 1, 0}}},
		{"code out of range", &DiscreteIndex{Domain: []string{"a", "b"}, Codes: []uint32{0, 2, 0}}},
	}
	for _, tc := range cases {
		if _, err := FromBacking(schema, 3, nil, nil, map[string]*DiscreteIndex{"d": tc.ix}); err == nil {
			t.Errorf("%s: FromBacking succeeded", tc.name)
		}
	}
	if _, err := FromBacking(schema, 3, nil, nil, map[string]*DiscreteIndex{"x": good}); err == nil {
		t.Error("FromBacking without column d succeeded")
	}
}
