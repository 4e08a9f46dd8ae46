package relation

import (
	"slices"
	"testing"
)

func TestFromBackingValidatesCodes(t *testing.T) {
	schema := MustSchema(Column{Name: "d", Kind: Discrete})
	good := &DiscreteIndex{Domain: []string{"a", "b"}, Codes: []uint32{0, 1, 0}}
	r, err := FromBacking(schema, 3, nil, map[string]*DiscreteIndex{"d": good})
	if err != nil {
		t.Fatalf("valid codes: %v", err)
	}
	ix, _ := r.DiscreteIndex("d")
	if want := []uint32{2, 1}; !slices.Equal(ix.Counts, want) {
		t.Fatalf("Counts = %v, want %v", ix.Counts, want)
	}
	if got := r.MustDiscrete("d"); !slices.Equal(got, []string{"a", "b", "a"}) {
		t.Fatalf("strings decoded from codes = %v", got)
	}
	// A domain value no row holds is dropped, and the codes remapped.
	wide := &DiscreteIndex{Domain: []string{"a", "b", "c"}, Codes: []uint32{2, 0, 2}}
	r, err = FromBacking(schema, 3, nil, map[string]*DiscreteIndex{"d": wide})
	if err != nil {
		t.Fatalf("wide domain: %v", err)
	}
	ix, _ = r.DiscreteIndex("d")
	if !slices.Equal(ix.Domain, []string{"a", "c"}) || !slices.Equal(ix.Codes, []uint32{1, 0, 1}) || !slices.Equal(ix.Counts, []uint32{1, 2}) {
		t.Fatalf("wide domain canonicalized to %+v", ix)
	}
	if !slices.Equal(wide.Codes, []uint32{2, 0, 2}) {
		t.Fatalf("FromBacking wrote the codes it was given: %v", wide.Codes)
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
		if _, err := FromBacking(schema, 3, nil, map[string]*DiscreteIndex{"d": tc.ix}); err == nil {
			t.Errorf("%s: FromBacking succeeded", tc.name)
		}
	}
	if _, err := FromBacking(schema, 3, nil, map[string]*DiscreteIndex{"x": good}); err == nil {
		t.Error("FromBacking without column d succeeded")
	}
}
