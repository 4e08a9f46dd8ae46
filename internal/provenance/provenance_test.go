package provenance

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func eqPred(vals ...string) func(string) bool {
	set := make(map[string]bool, len(vals))
	for _, v := range vals {
		set[v] = true
	}
	return func(v string) bool { return set[v] }
}

// rowLevel applies the row-level rewrite before[i] -> after[i] to g as
// transition counts.
func rowLevel(g *Graph, before, after []string) {
	trans := make(map[string]map[string]int)
	for i, m := range before {
		if trans[m] == nil {
			trans[m] = make(map[string]int)
		}
		trans[m][after[i]]++
	}
	g.ApplyTransitions(trans)
}

func TestIdentityGraph(t *testing.T) {
	g := NewGraph("major", []string{"a", "b", "c"})
	if g.Attr() != "major" {
		t.Fatalf("attr = %q", g.Attr())
	}
	if g.DomainSize() != 3 {
		t.Fatalf("N = %d", g.DomainSize())
	}
	if g.Forked() {
		t.Fatal("identity graph should be fork-free")
	}
	if got := g.Selectivity(eqPred("a", "b")); got != 2 {
		t.Fatalf("selectivity = %v, want 2", got)
	}
	if got := g.UnweightedSelectivity(eqPred("a")); got != 1 {
		t.Fatalf("unweighted = %v", got)
	}
	dom := g.CleanDomain()
	if len(dom) != 3 || dom[0] != "a" || dom[2] != "c" {
		t.Fatalf("clean domain = %v", dom)
	}
	if err := g.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeterministicMerge(t *testing.T) {
	// The Example 5 scenario: Civil Eng, Mech Eng, M.E -> Engineering;
	// Math stays.
	g := NewGraph("major", []string{"Civil", "Mech", "M.E", "Math"})
	g.ApplyDeterministic(func(v string) string {
		if v == "Math" {
			return v
		}
		return "Engineering"
	})
	if got := g.Selectivity(eqPred("Engineering")); got != 3 {
		t.Fatalf("l = %v, want 3 (the parent set size)", got)
	}
	if got := g.Selectivity(eqPred("Math")); got != 1 {
		t.Fatalf("l(Math) = %v", got)
	}
	if g.DomainSize() != 4 {
		t.Fatal("N must stay the dirty-domain size")
	}
	parents, ok := g.Parents("Engineering")
	if !ok || len(parents) != 3 || parents["Civil"] != 1 {
		t.Fatalf("parents = %v, %v", parents, ok)
	}
	if _, ok := g.Parents("Civil"); ok {
		t.Fatal("Civil is no longer a clean value")
	}
	if err := g.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	if g.Forked() {
		t.Fatal("deterministic merge must stay fork-free")
	}
}

func TestApplyDeterministicComposition(t *testing.T) {
	g := NewGraph("d", []string{"a", "b", "c"})
	g.ApplyDeterministic(func(v string) string {
		if v == "a" {
			return "ab"
		}
		if v == "b" {
			return "ab"
		}
		return v
	})
	g.ApplyDeterministic(func(v string) string {
		if v == "ab" || v == "c" {
			return "all"
		}
		return v
	})
	if got := g.Selectivity(eqPred("all")); got != 3 {
		t.Fatalf("composed l = %v, want 3", got)
	}
	if err := g.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestApplyRowLevelFork(t *testing.T) {
	// Example 6: NULL splits 50/50 between John Doe and Jane Smith.
	g := NewGraph("instructor", []string{"NULL", "John Doe"})
	before := []string{"John Doe", "NULL", "NULL"}
	after := []string{"John Doe", "John Doe", "Jane Smith"}
	rowLevel(g, before, after)
	if !g.Forked() {
		t.Fatal("row-level fork should mark the graph forked")
	}
	parents, _ := g.Parents("John Doe")
	if math.Abs(parents["NULL"]-0.5) > 1e-9 || parents["John Doe"] != 1 {
		t.Fatalf("parents(John Doe) = %v", parents)
	}
	// Weighted cut: l for {John Doe} = 1 + 0.5.
	if got := g.Selectivity(eqPred("John Doe")); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("weighted l = %v, want 1.5", got)
	}
	// Unweighted cut counts NULL fully.
	if got := g.UnweightedSelectivity(eqPred("John Doe")); got != 2 {
		t.Fatalf("unweighted l = %v, want 2", got)
	}
	if err := g.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestApplyRowLevelUnsupportedValueKeepsIdentity(t *testing.T) {
	// A domain value with no rows (randomized away) keeps its identity
	// mapping so later queries still see it as its own parent.
	g := NewGraph("d", []string{"a", "b", "ghost"})
	rowLevel(g, []string{"a", "b"}, []string{"x", "x"})
	if got := g.Selectivity(eqPred("ghost")); got != 1 {
		t.Fatalf("ghost selectivity = %v, want identity 1", got)
	}
	if got := g.Selectivity(eqPred("x")); got != 2 {
		t.Fatalf("x selectivity = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := NewGraph("d", []string{"a", "b"})
	c := g.Clone()
	c.ApplyDeterministic(func(string) string { return "merged" })
	if got := g.Selectivity(eqPred("a")); got != 1 {
		t.Fatal("clone mutation leaked into original")
	}
	if got := c.Selectivity(eqPred("merged")); got != 2 {
		t.Fatalf("clone selectivity = %v", got)
	}
}

func TestEdgeCount(t *testing.T) {
	g := NewGraph("d", []string{"a", "b", "c"})
	if g.EdgeCount() != 3 {
		t.Fatalf("identity edges = %d", g.EdgeCount())
	}
	g.ApplyDeterministic(func(string) string { return "m" })
	if g.EdgeCount() != 3 {
		t.Fatalf("merged edges = %d", g.EdgeCount())
	}
}

func TestValidateCatchesBrokenWeights(t *testing.T) {
	g := NewGraph("d", []string{"a"})
	g.parents["extra"] = map[string]float64{"a": 0.5}
	if err := g.Validate(1e-9); err == nil {
		t.Fatal("want validation error for weight sum 1.5")
	}
	g2 := NewGraph("d", []string{"a"})
	g2.parents["a"]["a"] = -0.2
	if err := g2.Validate(1e-9); err == nil {
		t.Fatal("want validation error for negative weight")
	}
}

func TestStoreEnsureAndGraph(t *testing.T) {
	s := NewStore()
	g1 := s.Ensure("major", []string{"a", "b"})
	g2 := s.Ensure("major", []string{"ignored"})
	if g1 != g2 {
		t.Fatal("Ensure should return the existing graph")
	}
	if g2.DomainSize() != 2 {
		t.Fatal("second Ensure must not reinitialize")
	}
	if _, ok := s.Graph("nope"); ok {
		t.Fatal("Graph(nope) should miss")
	}
	got, ok := s.Graph("major")
	if !ok || got != g1 {
		t.Fatal("Graph(major) should hit")
	}
	attrs := s.Attrs()
	if len(attrs) != 1 || attrs[0] != "major" {
		t.Fatalf("attrs = %v", attrs)
	}
}

func TestStoreExtractedLinks(t *testing.T) {
	s := NewStore()
	base := s.Ensure("major", []string{"a", "b"})
	g := base.Clone()
	g.ApplyDeterministic(func(v string) string { return v + "!" })
	s.LinkExtracted("flag", "major", g)
	if s.BaseAttr("flag") != "major" {
		t.Fatalf("BaseAttr(flag) = %q", s.BaseAttr("flag"))
	}
	if s.BaseAttr("major") != "major" {
		t.Fatal("BaseAttr of a base attribute is itself")
	}
	// Chained extraction resolves transitively.
	g2 := g.Clone()
	s.LinkExtracted("flag2", "flag", g2)
	if s.BaseAttr("flag2") != "major" {
		t.Fatalf("BaseAttr(flag2) = %q", s.BaseAttr("flag2"))
	}
	// A cycle (corrupt input) terminates.
	s.base["major"] = "flag2"
	_ = s.BaseAttr("flag2")
}

// Property: after any sequence of deterministic maps, weights per dirty
// value sum to 1 and total selectivity over the whole clean domain is N.
func TestGraphInvariantProperty(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		domain := make([]string, 20)
		for i := range domain {
			domain[i] = "v" + strconv.Itoa(i)
		}
		g := NewGraph("d", domain)
		nSteps := int(steps % 5)
		for s := 0; s < nSteps; s++ {
			clean := g.CleanDomain()
			mapping := make(map[string]string, len(clean))
			for _, v := range clean {
				mapping[v] = clean[rng.Intn(len(clean))]
			}
			g.ApplyDeterministic(func(v string) string {
				if to, ok := mapping[v]; ok {
					return to
				}
				return v
			})
		}
		if err := g.Validate(1e-9); err != nil {
			return false
		}
		total := g.Selectivity(func(string) bool { return true })
		return math.Abs(total-20) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: row-level updates preserve the weight invariant and never leave
// the graph with more clean values than dirty values plus fresh names.
func TestRowLevelInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		domain := []string{"a", "b", "c", "d"}
		g := NewGraph("d", domain)
		n := 40
		before := make([]string, n)
		after := make([]string, n)
		for i := range before {
			before[i] = domain[rng.Intn(len(domain))]
			after[i] = domain[rng.Intn(len(domain))]
		}
		rowLevel(g, before, after)
		if err := g.Validate(1e-9); err != nil {
			return false
		}
		total := g.Selectivity(func(string) bool { return true })
		return math.Abs(total-4) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
