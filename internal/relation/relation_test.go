package relation

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) Schema {
	t.Helper()
	return MustSchema(
		Column{Name: "major", Kind: Discrete},
		Column{Name: "score", Kind: Numeric},
	)
}

func TestNewSchemaRejectsDuplicates(t *testing.T) {
	_, err := NewSchema(
		Column{Name: "a", Kind: Discrete},
		Column{Name: "a", Kind: Numeric},
	)
	if err == nil {
		t.Fatal("want error for duplicate column names")
	}
}

func TestNewSchemaRejectsEmptyName(t *testing.T) {
	_, err := NewSchema(Column{Name: "", Kind: Discrete})
	if err == nil {
		t.Fatal("want error for empty column name")
	}
}

func TestSchemaLookupAndNames(t *testing.T) {
	s := testSchema(t)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Has("major") {
		t.Fatal("Has(major) = false")
	}
	if s.Has("nope") {
		t.Fatal("Has(nope) should be false")
	}
	if got := s.DiscreteNames(); len(got) != 1 || got[0] != "major" {
		t.Fatalf("DiscreteNames = %v", got)
	}
	if got := s.NumericNames(); len(got) != 1 || got[0] != "score" {
		t.Fatalf("NumericNames = %v", got)
	}
	if !strings.Contains(s.String(), "major:discrete") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestKindString(t *testing.T) {
	if Numeric.String() != "numeric" || Discrete.String() != "discrete" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatalf("unknown kind = %q", Kind(9).String())
	}
}

func TestBuilderRoundTrip(t *testing.T) {
	b := NewBuilder(testSchema(t))
	b.Append(map[string]float64{"score": 4}, map[string]string{"major": "ME"})
	b.Append(map[string]float64{"score": 3}, map[string]string{"major": "EE"})
	b.Append(nil, nil) // all-missing row
	r, err := b.Relation()
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 3 {
		t.Fatalf("rows = %d", r.NumRows())
	}
	majors := r.MustDiscrete("major")
	if majors[0] != "ME" || majors[2] != Null {
		t.Fatalf("majors = %v", majors)
	}
	scores := r.MustNumeric("score")
	if scores[1] != 3 || !math.IsNaN(scores[2]) {
		t.Fatalf("scores = %v", scores)
	}
}

func TestBuilderRejectsUnknownColumns(t *testing.T) {
	b := NewBuilder(testSchema(t))
	b.Append(map[string]float64{"bogus": 1}, nil)
	if _, err := b.Relation(); err == nil {
		t.Fatal("want error for unknown numeric column")
	}
	b2 := NewBuilder(testSchema(t))
	b2.Append(nil, map[string]string{"bogus": "x"})
	if _, err := b2.Relation(); err == nil {
		t.Fatal("want error for unknown discrete column")
	}
}

func mustRel(t *testing.T) *Relation {
	t.Helper()
	r, err := FromColumns(testSchema(t),
		map[string][]float64{"score": {4, 3, 1, 5}},
		map[string][]string{"major": {"ME", "ME", "EE", "CS"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFromColumnsLengthMismatch(t *testing.T) {
	_, err := FromColumns(testSchema(t),
		map[string][]float64{"score": {1}},
		map[string][]string{"major": {"a", "b"}},
	)
	if err == nil {
		t.Fatal("want length mismatch error")
	}
}

func TestFromColumnsMissingColumn(t *testing.T) {
	_, err := FromColumns(testSchema(t),
		map[string][]float64{},
		map[string][]string{"major": {"a"}},
	)
	if err == nil {
		t.Fatal("want missing column error")
	}
}

func TestColumnAccessKindMismatch(t *testing.T) {
	r := mustRel(t)
	if _, err := r.Numeric("major"); err == nil {
		t.Fatal("Numeric(major) should fail")
	}
	if _, err := r.Discrete("score"); err == nil {
		t.Fatal("Discrete(score) should fail")
	}
	if _, err := r.Numeric("nope"); err == nil {
		t.Fatal("Numeric(nope) should fail")
	}
}

func TestDomainAndCounts(t *testing.T) {
	r := mustRel(t)
	dom, err := r.Domain("major")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"CS", "EE", "ME"}
	if len(dom) != 3 {
		t.Fatalf("domain = %v", dom)
	}
	for i := range want {
		if dom[i] != want[i] {
			t.Fatalf("domain = %v, want %v", dom, want)
		}
	}
	n, err := r.DomainSize("major")
	if err != nil || n != 3 {
		t.Fatalf("DomainSize = %d, %v", n, err)
	}
	counts, err := r.ValueCounts("major")
	if err != nil || counts["ME"] != 2 || counts["CS"] != 1 {
		t.Fatalf("counts = %v, %v", counts, err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := mustRel(t)
	c := r.Clone()
	if !r.Equal(c) {
		t.Fatal("clone should equal original")
	}
	if err := c.SetDiscrete("major", []string{"XX", "ME", "EE", "CS"}); err != nil {
		t.Fatal(err)
	}
	c.MustNumeric("score")[0] = 99
	if r.MustDiscrete("major")[0] != "ME" || r.MustNumeric("score")[0] != 4 {
		t.Fatal("clone mutation leaked into original")
	}
	if r.Equal(c) {
		t.Fatal("mutated clone should differ")
	}
}

func TestSetOutOfRange(t *testing.T) {
	r := mustRel(t)
	if err := r.SetDiscrete("major", []string{"x"}); err == nil {
		t.Fatal("want error for a column shorter than the relation")
	}
	if err := r.SetDiscrete("score", []string{"a", "b", "c", "d"}); err == nil {
		t.Fatal("want error for a numeric column")
	}
}

func TestRow(t *testing.T) {
	r := mustRel(t)
	row, err := r.Row(2)
	if err != nil {
		t.Fatal(err)
	}
	if row.Discrete["major"] != "EE" || row.Numeric["score"] != 1 {
		t.Fatalf("row = %+v", row)
	}
	if _, err := r.Row(4); err == nil {
		t.Fatal("want out-of-range error")
	}
}

func TestMapDomain(t *testing.T) {
	r := mustRel(t)
	if err := r.MapDomain("major", func(v string) string { return strings.ToLower(v) }); err != nil {
		t.Fatal(err)
	}
	if r.MustDiscrete("major")[0] != "me" {
		t.Fatalf("major[0] = %q", r.MustDiscrete("major")[0])
	}
}

func TestAddDiscreteColumn(t *testing.T) {
	r := mustRel(t)
	if err := r.AddDiscreteColumn("dept", []string{"a", "b", "c", "d"}); err != nil {
		t.Fatal(err)
	}
	if !r.Schema().Has("dept") {
		t.Fatal("schema missing dept")
	}
	if got := r.MustDiscrete("dept")[3]; got != "d" {
		t.Fatalf("dept[3] = %q", got)
	}
	if err := r.AddDiscreteColumn("dept", []string{"a", "b", "c", "d"}); err == nil {
		t.Fatal("want duplicate-column error")
	}
	if err := r.AddDiscreteColumn("short", []string{"a"}); err == nil {
		t.Fatal("want length error")
	}
}

func TestAddColumnDoesNotAffectCloneSchema(t *testing.T) {
	r := mustRel(t)
	c := r.Clone()
	if err := c.AddDiscreteColumn("extra", []string{"1", "2", "3", "4"}); err != nil {
		t.Fatal(err)
	}
	if r.Schema().Has("extra") {
		t.Fatal("adding a column to the clone changed the original's schema")
	}
}

func TestEqualNaN(t *testing.T) {
	s := MustSchema(Column{Name: "x", Kind: Numeric})
	a, _ := FromColumns(s, map[string][]float64{"x": {math.NaN()}}, nil)
	b, _ := FromColumns(s, map[string][]float64{"x": {math.NaN()}}, nil)
	if !a.Equal(b) {
		t.Fatal("NaN cells should compare equal")
	}
	c, _ := FromColumns(s, map[string][]float64{"x": {1}}, nil)
	if a.Equal(c) {
		t.Fatal("NaN != 1")
	}
}

func TestRelationString(t *testing.T) {
	r := mustRel(t)
	if !strings.Contains(r.String(), "4 rows") {
		t.Fatalf("String = %q", r.String())
	}
}

// Property: Domain always returns sorted distinct values covering exactly the
// values present.
func TestDomainProperty(t *testing.T) {
	s := MustSchema(Column{Name: "d", Kind: Discrete})
	f := func(vals []string) bool {
		if len(vals) == 0 {
			vals = []string{"x"}
		}
		r, err := FromColumns(s, nil, map[string][]string{"d": vals})
		if err != nil {
			return false
		}
		dom, err := r.Domain("d")
		if err != nil {
			return false
		}
		seen := make(map[string]bool)
		for _, v := range vals {
			seen[v] = true
		}
		if len(dom) != len(seen) {
			return false
		}
		for i, v := range dom {
			if !seen[v] {
				return false
			}
			if i > 0 && dom[i-1] >= v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone is always Equal to its source.
func TestClonePropertyEqual(t *testing.T) {
	s := MustSchema(Column{Name: "d", Kind: Discrete}, Column{Name: "x", Kind: Numeric})
	f := func(ds []string, xs []float64) bool {
		n := len(ds)
		if len(xs) < n {
			n = len(xs)
		}
		r, err := FromColumns(s,
			map[string][]float64{"x": xs[:n]},
			map[string][]string{"d": ds[:n]})
		if err != nil {
			return false
		}
		return r.Equal(r.Clone())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaColumnsCopy(t *testing.T) {
	s := testSchema(t)
	cols := s.Columns()
	if len(cols) != 2 || cols[0].Name != "major" {
		t.Fatalf("columns = %v", cols)
	}
	// Mutating the copy must not affect the schema.
	cols[0].Name = "hacked"
	if !s.Has("major") {
		t.Fatal("Columns returned a live reference")
	}
}
