package cleaning

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"privateclean/internal/faults"
	"privateclean/internal/privacy"
	"privateclean/internal/provenance"
	"privateclean/internal/relation"
)

func evalRel(t *testing.T) *relation.Relation {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "major", Kind: relation.Discrete},
		relation.Column{Name: "section", Kind: relation.Discrete},
		relation.Column{Name: "instructor", Kind: relation.Discrete},
		relation.Column{Name: "score", Kind: relation.Numeric},
	)
	r, err := relation.FromColumns(schema,
		map[string][]float64{"score": {4, 3, 1, 5, 2}},
		map[string][]string{
			"major":      {"Mechanical E.", "Mech. Eng.", "EECS", "Electrical Engineering and Computer Sciences", "Math"},
			"section":    {"1", "1", "2", "2", "3"},
			"instructor": {"John Doe", relation.Null, "Jane Smith", "Jane Smith", relation.Null},
		})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func ctxWithProv(t *testing.T, r *relation.Relation) *Context {
	t.Helper()
	return &Context{Rel: r, Prov: provenance.NewStore()}
}

func TestFindReplace(t *testing.T) {
	r := evalRel(t)
	ctx := ctxWithProv(t, r)
	op := FindReplace{Attr: "major", From: "Electrical Engineering and Computer Sciences", To: "EECS"}
	if err := Apply(ctx, op); err != nil {
		t.Fatal(err)
	}
	majors := r.MustDiscrete("major")
	if majors[3] != "EECS" {
		t.Fatalf("majors = %v", majors)
	}
	g, ok := ctx.Prov.Graph("major")
	if !ok {
		t.Fatal("no provenance graph recorded")
	}
	// EECS now has two parents.
	if got := g.Selectivity(func(v string) bool { return v == "EECS" }); got != 2 {
		t.Fatalf("l(EECS) = %v, want 2", got)
	}
	if g.DomainSize() != 5 {
		t.Fatalf("N = %d, want 5", g.DomainSize())
	}
	if !strings.Contains(op.Name(), "find-replace") {
		t.Fatalf("name = %q", op.Name())
	}
}

func TestTransformNilFunc(t *testing.T) {
	r := evalRel(t)
	if err := Apply(ctxWithProv(t, r), Transform{Attr: "major"}); err == nil {
		t.Fatal("want error for nil transform func")
	}
}

func TestTransformUnknownAttr(t *testing.T) {
	r := evalRel(t)
	err := Apply(ctxWithProv(t, r), Transform{Attr: "nope", F: func(v string) string { return v }})
	if err == nil {
		t.Fatal("want error for unknown attribute")
	}
}

func TestMergeSeesCurrentDomain(t *testing.T) {
	r := evalRel(t)
	var seen []string
	op := Merge{Attr: "major", F: func(v string, domain []string) string {
		seen = domain
		return v
	}}
	if err := Apply(ctxWithProv(t, r), op); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 {
		t.Fatalf("merge saw domain %v", seen)
	}
	if err := Apply(ctxWithProv(t, r), Merge{Attr: "major"}); err == nil {
		t.Fatal("want error for nil merge func")
	}
}

func TestDictionaryMerge(t *testing.T) {
	r := evalRel(t)
	ctx := ctxWithProv(t, r)
	op := DictionaryMerge{Attr: "major", Mapping: map[string]string{
		"Mechanical E.": "Mech. Eng.",
	}}
	if err := Apply(ctx, op); err != nil {
		t.Fatal(err)
	}
	if r.MustDiscrete("major")[0] != "Mech. Eng." {
		t.Fatal("dictionary merge missed")
	}
	g, _ := ctx.Prov.Graph("major")
	if got := g.Selectivity(func(v string) bool { return v == "Mech. Eng." }); got != 2 {
		t.Fatalf("l = %v", got)
	}
}

func TestNullifyInvalid(t *testing.T) {
	r := evalRel(t)
	ctx := ctxWithProv(t, r)
	valid := map[string]bool{"John Doe": true, "Jane Smith": true}
	op := NullifyInvalid{Attr: "instructor", Valid: func(v string) bool { return valid[v] }}
	if err := Apply(ctx, op); err != nil {
		t.Fatal(err)
	}
	insts := r.MustDiscrete("instructor")
	if insts[1] != relation.Null || insts[0] != "John Doe" {
		t.Fatalf("instructors = %v", insts)
	}
	if err := Apply(ctx, NullifyInvalid{Attr: "instructor"}); err == nil {
		t.Fatal("want error for nil validity predicate")
	}
}

func TestExtract(t *testing.T) {
	r := evalRel(t)
	ctx := ctxWithProv(t, r)
	op := Extract{SrcAttr: "major", NewAttr: "is_eng", F: func(v string) string {
		if v == "Math" {
			return "no"
		}
		return "yes"
	}}
	if err := Apply(ctx, op); err != nil {
		t.Fatal(err)
	}
	col := r.MustDiscrete("is_eng")
	if col[4] != "no" || col[0] != "yes" {
		t.Fatalf("is_eng = %v", col)
	}
	// The new attribute's provenance resolves to the source attribute.
	if ctx.Prov.BaseAttr("is_eng") != "major" {
		t.Fatalf("BaseAttr = %q", ctx.Prov.BaseAttr("is_eng"))
	}
	g, ok := ctx.Prov.Graph("is_eng")
	if !ok {
		t.Fatal("extracted attribute has no graph")
	}
	if got := g.Selectivity(func(v string) bool { return v == "yes" }); got != 4 {
		t.Fatalf("l(yes) = %v, want 4 source majors", got)
	}
	// Errors: nil func, duplicate attr.
	if err := Apply(ctx, Extract{SrcAttr: "major", NewAttr: "x"}); err == nil {
		t.Fatal("want error for nil extract func")
	}
	if err := Apply(ctx, Extract{SrcAttr: "major", NewAttr: "is_eng", F: func(v string) string { return v }}); err == nil {
		t.Fatal("want error for duplicate attribute")
	}
}

func TestExtractChained(t *testing.T) {
	r := evalRel(t)
	ctx := ctxWithProv(t, r)
	ops := []Op{
		Extract{SrcAttr: "major", NewAttr: "e1", F: func(v string) string { return v + "!" }},
		Extract{SrcAttr: "e1", NewAttr: "e2", F: func(v string) string { return v + "?" }},
	}
	if err := Apply(ctx, ops...); err != nil {
		t.Fatal(err)
	}
	if ctx.Prov.BaseAttr("e2") != "major" {
		t.Fatalf("chained BaseAttr = %q", ctx.Prov.BaseAttr("e2"))
	}
}

func TestTransformRowsWeightedProvenance(t *testing.T) {
	r := evalRel(t)
	ctx := ctxWithProv(t, r)
	// Fill missing instructors from the section, like Example 6.
	fill := map[string]string{"1": "John Doe", "3": "Section3 Guy"}
	op := TransformRows{
		Attrs: []string{"section", "instructor"},
		F: func(vals []string) []string {
			sec, inst := vals[0], vals[1]
			if inst == relation.Null {
				if v, ok := fill[sec]; ok {
					inst = v
				}
			}
			return []string{sec, inst}
		},
	}
	if err := Apply(ctx, op); err != nil {
		t.Fatal(err)
	}
	insts := r.MustDiscrete("instructor")
	if insts[1] != "John Doe" || insts[4] != "Section3 Guy" {
		t.Fatalf("instructors = %v", insts)
	}
	g, _ := ctx.Prov.Graph("instructor")
	if !g.Forked() {
		t.Fatal("NULL forked across two instructors; graph should be weighted")
	}
	// NULL split 50/50.
	var saved struct {
		Parents map[string]map[string]float64 `json:"parents"`
	}
	if b, err := json.Marshal(g); err != nil || json.Unmarshal(b, &saved) != nil {
		t.Fatalf("graph JSON round trip: %v", err)
	}
	if parents := saved.Parents["John Doe"]; math.Abs(parents[relation.Null]-0.5) > 1e-9 {
		t.Fatalf("parents = %v", parents)
	}
	if err := g.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestTransformRowsErrors(t *testing.T) {
	r := evalRel(t)
	if err := Apply(ctxWithProv(t, r), TransformRows{Attrs: []string{"major"}}); err == nil {
		t.Fatal("want error for nil func")
	}
	if err := Apply(ctxWithProv(t, r), TransformRows{F: func(v []string) []string { return v }}); err == nil {
		t.Fatal("want error for no attributes")
	}
	bad := TransformRows{Attrs: []string{"major"}, F: func([]string) []string { return nil }}
	if err := Apply(ctxWithProv(t, r), bad); err == nil {
		t.Fatal("want error for wrong arity")
	}
	missing := TransformRows{Attrs: []string{"nope"}, F: func(v []string) []string { return v }}
	if err := Apply(ctxWithProv(t, r), missing); err == nil {
		t.Fatal("want error for unknown attribute")
	}
	// A repeated attribute would be written twice per row; both entry
	// points refuse it as bad input before touching a row.
	repeated := TransformRows{Attrs: []string{"major", "major"}, F: func(v []string) []string {
		return []string{v[0] + "-x", v[1] + "-y"}
	}}
	if err := Apply(ctxWithProv(t, r), repeated); !errors.Is(err, faults.ErrBadInput) {
		t.Fatalf("Apply: want ErrBadInput for a repeated attribute, got %v", err)
	}
	if r.MustDiscrete("major")[0] != "Mechanical E." {
		t.Fatal("Apply rewrote rows before rejecting a repeated attribute")
	}
	var out bytes.Buffer
	ctx := &Context{Prov: provenance.NewStore(), Meta: metaFor(t, r)}
	if _, err := StreamApply(ctx, windows(r.Clone(), 2), &out, repeated); !errors.Is(err, faults.ErrBadInput) {
		t.Fatalf("StreamApply: want ErrBadInput for a repeated attribute, got %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("StreamApply wrote %d bytes before rejecting a repeated attribute", out.Len())
	}
}

func TestApplyWithoutProvenance(t *testing.T) {
	r := evalRel(t)
	ctx := &Context{Rel: r} // ground-truth mode
	if err := Apply(ctx, FindReplace{Attr: "major", From: "Math", To: "Mathematics"}); err != nil {
		t.Fatal(err)
	}
	if r.MustDiscrete("major")[4] != "Mathematics" {
		t.Fatal("cleaning without provenance should still rewrite")
	}
}

func TestDirtyDomainFromMeta(t *testing.T) {
	r := evalRel(t)
	// Metadata says the randomization domain had an extra value the
	// current relation lost; the provenance graph must include it.
	meta := &privacy.ViewMeta{Discrete: map[string]privacy.DiscreteMeta{
		"major": {Name: "major", P: 0.1, Domain: []string{
			"EECS", "Electrical Engineering and Computer Sciences",
			"Mech. Eng.", "Mechanical E.", "Math", "GhostMajor",
		}},
	}}
	ctx := &Context{Rel: r, Prov: provenance.NewStore(), Meta: meta}
	if err := Apply(ctx, FindReplace{Attr: "major", From: "Math", To: "Mathematics"}); err != nil {
		t.Fatal(err)
	}
	g, _ := ctx.Prov.Graph("major")
	if g.DomainSize() != 6 {
		t.Fatalf("N = %d, want 6 (from released metadata)", g.DomainSize())
	}
}

func TestFDRepairMajority(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "section", Kind: relation.Discrete},
		relation.Column{Name: "instructor", Kind: relation.Discrete},
	)
	r, err := relation.FromColumns(schema, nil, map[string][]string{
		"section":    {"1", "1", "1", "2", "2"},
		"instructor": {"Doe", "Doe", "Smith", "Lee", "Lee"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxWithProv(t, r)
	if err := Apply(ctx, FDRepair{LHS: []string{"section"}, RHS: "instructor"}); err != nil {
		t.Fatal(err)
	}
	insts := r.MustDiscrete("instructor")
	for i := 0; i < 3; i++ {
		if insts[i] != "Doe" {
			t.Fatalf("row %d = %q, want majority Doe", i, insts[i])
		}
	}
	// FD holds after repair.
	secs := r.MustDiscrete("section")
	bySec := map[string]string{}
	for i := range secs {
		if prev, ok := bySec[secs[i]]; ok && prev != insts[i] {
			t.Fatal("FD violated after repair")
		}
		bySec[secs[i]] = insts[i]
	}
	if err := Apply(ctx, FDRepair{RHS: "instructor"}); err == nil {
		t.Fatal("want error for empty LHS")
	}
}

func TestFDRepairDeterministicTieBreak(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.Discrete},
		relation.Column{Name: "v", Kind: relation.Discrete},
	)
	r, _ := relation.FromColumns(schema, nil, map[string][]string{
		"k": {"1", "1"},
		"v": {"b", "a"},
	})
	if err := Apply(&Context{Rel: r}, FDRepair{LHS: []string{"k"}, RHS: "v"}); err != nil {
		t.Fatal(err)
	}
	vs := r.MustDiscrete("v")
	if vs[0] != "a" || vs[1] != "a" {
		t.Fatalf("tie should break lexicographically: %v", vs)
	}
}

func TestFDImpute(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "section", Kind: relation.Discrete},
		relation.Column{Name: "instructor", Kind: relation.Discrete},
	)
	r, err := relation.FromColumns(schema, nil, map[string][]string{
		"section":    {"1", "1", "2", "2", "3"},
		"instructor": {"Doe", relation.Null, "Smith", relation.Null, relation.Null},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxWithProv(t, r)
	if err := Apply(ctx, FDImpute{LHS: []string{"section"}, RHS: "instructor"}); err != nil {
		t.Fatal(err)
	}
	insts := r.MustDiscrete("instructor")
	if insts[1] != "Doe" || insts[3] != "Smith" {
		t.Fatalf("imputed = %v", insts)
	}
	// Section 3 has no non-missing value: stays NULL.
	if insts[4] != relation.Null {
		t.Fatalf("group without evidence should keep NULL, got %q", insts[4])
	}
	// Non-missing rows untouched.
	if insts[0] != "Doe" || insts[2] != "Smith" {
		t.Fatalf("non-missing rows changed: %v", insts)
	}
	g, _ := ctx.Prov.Graph("instructor")
	if !g.Forked() {
		t.Fatal("NULL forks; graph should be weighted")
	}
	if err := Apply(ctx, FDImpute{RHS: "instructor"}); err == nil {
		t.Fatal("want error for empty LHS")
	}
}

func TestMDRepair(t *testing.T) {
	schema := relation.MustSchema(relation.Column{Name: "country", Kind: relation.Discrete})
	r, err := relation.FromColumns(schema, nil, map[string][]string{
		"country": {"Canada", "Canada", "Canadax", "Mexico", "Mexicoq", "Mexico"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxWithProv(t, r)
	if err := Apply(ctx, MDRepair{Attr: "country", MaxDist: 1}); err != nil {
		t.Fatal(err)
	}
	got := r.MustDiscrete("country")
	for i, want := range []string{"Canada", "Canada", "Canada", "Mexico", "Mexico", "Mexico"} {
		if got[i] != want {
			t.Fatalf("row %d = %q, want %q", i, got[i], want)
		}
	}
	g, _ := ctx.Prov.Graph("country")
	if g.Forked() {
		t.Fatal("MD repair is value-deterministic; graph must be fork-free")
	}
	if got := g.Selectivity(func(v string) bool { return v == "Canada" }); got != 2 {
		t.Fatalf("l(Canada) = %v", got)
	}
	if err := Apply(ctx, MDRepair{Attr: "country", MaxDist: -1}); err == nil {
		t.Fatal("want error for negative threshold")
	}
}

func TestMDRepairTransitiveClusters(t *testing.T) {
	// a - ab - abc chain: union-find merges transitively at distance 1.
	schema := relation.MustSchema(relation.Column{Name: "d", Kind: relation.Discrete})
	r, _ := relation.FromColumns(schema, nil, map[string][]string{
		"d": {"a", "ab", "abc", "abc", "zzz"},
	})
	if err := Apply(&Context{Rel: r}, MDRepair{Attr: "d", MaxDist: 1}); err != nil {
		t.Fatal(err)
	}
	got := r.MustDiscrete("d")
	// Canonical is the most frequent member: "abc" (2 rows).
	for i := 0; i < 4; i++ {
		if got[i] != "abc" {
			t.Fatalf("row %d = %q, want abc", i, got[i])
		}
	}
	if got[4] != "zzz" {
		t.Fatalf("zzz should stand alone, got %q", got[4])
	}
}

func TestMDRepairNormalize(t *testing.T) {
	schema := relation.MustSchema(relation.Column{Name: "d", Kind: relation.Discrete})
	r, _ := relation.FromColumns(schema, nil, map[string][]string{
		"d": {"US", "us ", "US", "JP"},
	})
	op := MDRepair{Attr: "d", MaxDist: 0, Normalize: func(s string) string {
		return strings.ToLower(strings.TrimSpace(s))
	}}
	if err := Apply(&Context{Rel: r}, op); err != nil {
		t.Fatal(err)
	}
	got := r.MustDiscrete("d")
	if got[1] != "US" {
		t.Fatalf("normalized merge failed: %v", got)
	}
}

func TestOpNames(t *testing.T) {
	ops := []Op{
		Transform{Attr: "a", Label: "x", F: func(v string) string { return v }},
		Transform{Attr: "a", F: func(v string) string { return v }},
		Merge{Attr: "a", Label: "y"},
		DictionaryMerge{Attr: "a"},
		NullifyInvalid{Attr: "a"},
		Extract{SrcAttr: "a", NewAttr: "b"},
		TransformRows{Attrs: []string{"a"}, Label: "z"},
		TransformRows{Attrs: []string{"a"}},
		FDRepair{LHS: []string{"a"}, RHS: "b"},
		FDImpute{LHS: []string{"a"}, RHS: "b"},
		MDRepair{Attr: "a", MaxDist: 2},
	}
	for _, op := range ops {
		if op.Name() == "" {
			t.Fatalf("%T has empty name", op)
		}
	}
}

func TestApplyStopsOnError(t *testing.T) {
	r := evalRel(t)
	err := Apply(ctxWithProv(t, r),
		FindReplace{Attr: "nope", From: "a", To: "b"},
		FindReplace{Attr: "major", From: "Math", To: "X"},
	)
	if err == nil {
		t.Fatal("want error")
	}
	if r.MustDiscrete("major")[4] != "Math" {
		t.Fatal("composition should stop at first error")
	}
}
