package cleaning

import (
	"sort"
	"strings"
	"testing"

	"privateclean/internal/relation"
)

// Every cleaning op that writes a discrete column must install an encoding
// whose domain is exactly the rewritten values: Domain read after the op
// must reflect them. Each test reads the index before the op, so an op that
// left the old index in place would show.

func domainOf(t *testing.T, r *relation.Relation, attr string) []string {
	t.Helper()
	d, err := r.Domain(attr)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(d)
	return d
}

func prime(t *testing.T, r *relation.Relation, attrs ...string) {
	t.Helper()
	for _, a := range attrs {
		if _, err := r.DiscreteIndex(a); err != nil {
			t.Fatal(err)
		}
	}
}

func assertDomain(t *testing.T, r *relation.Relation, attr string, want ...string) {
	t.Helper()
	got := domainOf(t, r, attr)
	sort.Strings(want)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("%s domain = %v, want %v", attr, got, want)
	}
}

func fdRel(t *testing.T) *relation.Relation {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "zip", Kind: relation.Discrete},
		relation.Column{Name: "city", Kind: relation.Discrete},
	)
	r, err := relation.FromColumns(schema, nil, map[string][]string{
		"zip":  {"94720", "94720", "94720", "10001"},
		"city": {"Berkeley", "Berkeley", "Oakland", "NYC"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTransformInvalidatesDomain(t *testing.T) {
	r := evalRel(t)
	prime(t, r, "section")
	op := Transform{Attr: "section", F: func(v string) string { return "s" + v }}
	if err := Apply(&Context{Rel: r}, op); err != nil {
		t.Fatal(err)
	}
	assertDomain(t, r, "section", "s1", "s2", "s3")
}

func TestMergeInvalidatesDomain(t *testing.T) {
	r := evalRel(t)
	prime(t, r, "section")
	op := Merge{Attr: "section", F: func(v string, domain []string) string { return domain[0] }}
	if err := Apply(&Context{Rel: r}, op); err != nil {
		t.Fatal(err)
	}
	assertDomain(t, r, "section", "1")
}

func TestFindReplaceInvalidatesDomain(t *testing.T) {
	r := evalRel(t)
	prime(t, r, "section")
	op := FindReplace{Attr: "section", From: "3", To: "2"}
	if err := Apply(&Context{Rel: r}, op); err != nil {
		t.Fatal(err)
	}
	assertDomain(t, r, "section", "1", "2")
}

func TestDictionaryMergeInvalidatesDomain(t *testing.T) {
	r := evalRel(t)
	prime(t, r, "section")
	op := DictionaryMerge{Attr: "section", Mapping: map[string]string{"1": "one"}}
	if err := Apply(&Context{Rel: r}, op); err != nil {
		t.Fatal(err)
	}
	assertDomain(t, r, "section", "one", "2", "3")
}

func TestNullifyInvalidInvalidatesDomain(t *testing.T) {
	r := evalRel(t)
	prime(t, r, "section")
	op := NullifyInvalid{Attr: "section", Valid: func(v string) bool { return v != "3" }}
	if err := Apply(&Context{Rel: r}, op); err != nil {
		t.Fatal(err)
	}
	assertDomain(t, r, "section", "1", "2", relation.Null)
}

func TestExtractBuildsFreshDomain(t *testing.T) {
	r := evalRel(t)
	prime(t, r, "section")
	op := Extract{SrcAttr: "section", NewAttr: "sec2", F: func(v string) string { return "x" + v }}
	if err := Apply(&Context{Rel: r}, op); err != nil {
		t.Fatal(err)
	}
	assertDomain(t, r, "sec2", "x1", "x2", "x3")
}

func TestTransformRowsInvalidatesEveryAttr(t *testing.T) {
	r := evalRel(t)
	prime(t, r, "major", "section")
	op := TransformRows{
		Attrs: []string{"major", "section"},
		F:     func(vals []string) []string { return []string{"M", "S"} },
	}
	if err := Apply(&Context{Rel: r}, op); err != nil {
		t.Fatal(err)
	}
	assertDomain(t, r, "major", "M")
	assertDomain(t, r, "section", "S")
}

func TestFDRepairInvalidatesRHSDomain(t *testing.T) {
	r := fdRel(t)
	prime(t, r, "city")
	op := FDRepair{LHS: []string{"zip"}, RHS: "city"}
	if err := Apply(&Context{Rel: r}, op); err != nil {
		t.Fatal(err)
	}
	// 94720's majority city is Berkeley; Oakland must be gone.
	assertDomain(t, r, "city", "Berkeley", "NYC")
}

func TestFDImputeInvalidatesRHSDomain(t *testing.T) {
	r := fdRel(t)
	if err := r.SetDiscrete("city", []string{"Berkeley", "Berkeley", relation.Null, "NYC"}); err != nil {
		t.Fatal(err)
	}
	prime(t, r, "city")
	op := FDImpute{LHS: []string{"zip"}, RHS: "city"}
	if err := Apply(&Context{Rel: r}, op); err != nil {
		t.Fatal(err)
	}
	assertDomain(t, r, "city", "Berkeley", "NYC")
}

func TestMDRepairInvalidatesDomain(t *testing.T) {
	r := evalRel(t)
	prime(t, r, "instructor")
	op := MDRepair{Attr: "instructor", MaxDist: 2}
	if err := Apply(&Context{Rel: r}, op); err != nil {
		t.Fatal(err)
	}
	d := domainOf(t, r, "instructor")
	col := r.MustDiscrete("instructor")
	distinct := map[string]bool{}
	for _, v := range col {
		distinct[v] = true
	}
	if len(d) != len(distinct) {
		t.Errorf("domain %v inconsistent with column %v", d, col)
	}
}
