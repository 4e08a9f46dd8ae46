package estimator

// Regression tests for ChannelCache key-aliasing bugs: predicates whose
// rendered descriptions collided used to poison each other's cached channel
// selectivity and match tables on the server's shared estimator.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"privateclean/internal/privacy"
	"privateclean/internal/relation"
)

// In used to render its values unquoted, joined with ", ", so
// In("category", "b, c") and In("category", "b", "c") produced the identical
// key `category IN (b, c)`: after one was resolved, the other was silently
// served the wrong cached match table. Values containing ", " are ordinary
// data ("Washington, DC"), not an edge case.
func TestInCacheKeyDisambiguatesJoinedValues(t *testing.T) {
	joined := In("category", "b, c")
	split := In("category", "b", "c")
	kj, okj := predCacheKey(joined)
	ks, oks := predCacheKey(split)
	if !okj || !oks {
		t.Fatalf("In predicates must be cacheable: joined %v, split %v", okj, oks)
	}
	if kj == ks {
		t.Fatalf("distinct In predicates share cache key %+v", kj)
	}

	// End-to-end: a shared cache must serve both predicates correctly in
	// either order. The relation holds the literal value "b, c" alongside
	// "b" and "c", so the two predicates select different row sets.
	r := catValRel(t,
		[]string{"b", "c", "b, c", "b, c", "d"},
		[]float64{1, 2, 3, 4, 5})
	meta := metaFor(0.25, "b", "c", "b, c", "d")
	plain := &Estimator{Meta: meta}
	cached := &Estimator{Meta: meta, Cache: NewChannelCache()}
	for _, pred := range []Predicate{joined, split, joined} {
		pc, err1 := plain.Count(r, pred)
		cc, err2 := cached.Count(r, pred)
		if err1 != nil || err2 != nil {
			t.Fatalf("Count(%s): %v / %v", pred, err1, err2)
		}
		if pc != cc {
			t.Fatalf("Count(%s): plain %+v != cached %+v (cache served an aliased entry)", pred, pc, cc)
		}
	}
}

// Fn predicates are keyed by UDF name alone in their rendering, so two Fn
// predicates with the same name but different functions would alias; they
// must bypass the cache entirely.
func TestFnPredicatesBypassCache(t *testing.T) {
	r := catValRel(t,
		[]string{"a", "a", "b", "c"},
		[]float64{1, 2, 3, 4})
	meta := metaFor(0.25, "a", "b", "c")
	plain := &Estimator{Meta: meta}
	cached := &Estimator{Meta: meta, Cache: NewChannelCache()}

	isA := Fn("category", "f", func(v string) bool { return v == "a" })
	isB := Fn("category", "f", func(v string) bool { return v == "b" }) // same name, different func
	for _, pred := range []Predicate{isA, isB} {
		if _, ok := predCacheKey(pred); ok {
			t.Fatalf("Fn predicate %s must not be cacheable", pred)
		}
		pc, err1 := plain.Count(r, pred)
		cc, err2 := cached.Count(r, pred)
		if err1 != nil || err2 != nil {
			t.Fatalf("Count(%s): %v / %v", pred, err1, err2)
		}
		if pc != cc {
			t.Fatalf("Count(%s): plain %+v != cached %+v", pred, pc, cc)
		}
	}
	if chans, tables := cached.Cache.Len(); chans != 0 || tables != 0 {
		t.Fatalf("Fn predicates left cache entries: %d channels, %d tables", chans, tables)
	}
}

// And-merged predicates (the query compiler's same-attribute conjunction
// merge) used to be built as Fn(attr, "and", ...), so every merged
// conjunction over one attribute shared the key `and(attr)`.
func TestAndPredicate(t *testing.T) {
	p := And(Eq("category", "a"), NotEq("category", "b"))
	q := And(Eq("category", "a"), NotEq("category", "c"))
	kp, okp := predCacheKey(p)
	kq, okq := predCacheKey(q)
	if !okp || !okq {
		t.Fatalf("And of cacheable predicates must be cacheable: %v / %v", okp, okq)
	}
	if kp == kq {
		t.Fatalf("distinct And predicates share cache key %+v", kp)
	}

	if !p.Match("a") || p.Match("b") || p.Match("c") {
		t.Fatalf("And match table wrong: a=%v b=%v c=%v", p.Match("a"), p.Match("b"), p.Match("c"))
	}

	// A nil Match side means match-all.
	all := Predicate{Attr: "category"}
	pa := And(all, Eq("category", "a"))
	if !pa.Match("a") || pa.Match("b") {
		t.Fatal("And with nil-Match side must reduce to the other side")
	}

	// Uncacheability is contagious: Fn operands and desc-less hand-built
	// operands (whose "<func>" fallback rendering is not canonical) poison
	// the conjunction, as does Not of a desc-less predicate.
	fn := Fn("category", "f", func(v string) bool { return v == "a" })
	if _, ok := predCacheKey(And(fn, Eq("category", "a"))); ok {
		t.Fatal("And with an Fn operand must not be cacheable")
	}
	handbuilt := Predicate{Attr: "category", Match: func(v string) bool { return v == "a" }}
	if _, ok := predCacheKey(And(Eq("category", "a"), handbuilt)); ok {
		t.Fatal("And with a desc-less operand must not be cacheable")
	}
	if _, ok := predCacheKey(Not(handbuilt)); ok {
		t.Fatal("Not of a desc-less predicate must not be cacheable")
	}

	// Cached equivalence end-to-end for the two merged conjunctions.
	r := catValRel(t,
		[]string{"a", "a", "b", "c"},
		[]float64{1, 2, 3, 4})
	meta := metaFor(0.25, "a", "b", "c")
	plain := &Estimator{Meta: meta}
	cached := &Estimator{Meta: meta, Cache: NewChannelCache()}
	for _, pred := range []Predicate{p, q, p} {
		pc, err1 := plain.Count(r, pred)
		cc, err2 := cached.Count(r, pred)
		if err1 != nil || err2 != nil {
			t.Fatalf("Count(%s): %v / %v", pred, err1, err2)
		}
		if pc != cc {
			t.Fatalf("Count(%s): plain %+v != cached %+v", pred, pc, cc)
		}
	}
}

// The nominal estimator shares its parent's cache but must never write a
// channel into it: channels are keyed by predicate alone, so a stored
// identity channel would silently turn every later corrected answer for
// that predicate into a nominal one. Nominal and corrected runs interleave
// on one cached estimator; the corrected answers stay bit-identical to a
// fresh uncached estimator's, the nominal ones to their own first run, and
// the channel counters do not move while the nominal estimator runs.
func TestNominalDoesNotPoisonChannelCache(t *testing.T) {
	rel := vectorRel(t, 500)
	catDom, _ := rel.Domain("cat")
	meta := &privacy.ViewMeta{
		Discrete: map[string]privacy.DiscreteMeta{
			"cat":   {Name: "cat", P: 0.2, Domain: catDom},
			"other": {Name: "other", P: 0.3, Domain: []string{"g0", "g1", "g2"}},
		},
		Numeric: map[string]privacy.NumericMeta{"x": {Name: "x", B: 1, Delta: 60, Lo: -30, Bins: 8}},
	}
	st, err := CollectStatisticsWith(relation.NewSliceIterator(rel, 128), CollectOpts{
		BinEdges: map[string][]float64{"x": meta.Numeric["x"].BinEdges()},
		Joints:   [][2]string{{"cat", "other"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pred := In("cat", "v01", "v02")
	conj := []Predicate{pred, Eq("other", "g1")}
	answers := func(e *Estimator) []string {
		var out []string
		add := func(name string, est Estimate, err error) {
			out = append(out, fmt.Sprintf("%s %x %x %v", name, math.Float64bits(est.Value), math.Float64bits(est.CI), err))
		}
		addGroups := func(name string, g map[string]Estimate, err error) {
			keys := make([]string, 0, len(g))
			for k := range g {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				add(name+"/"+k, g[k], nil)
			}
			add(name, Estimate{}, err)
		}
		c, err := e.Count(rel, pred)
		add("count", c, err)
		c, err = e.Sum(rel, "x", pred)
		add("sum", c, err)
		c, err = e.Avg(rel, "x", pred)
		add("avg", c, err)
		c, err = e.Var(rel, "x", pred)
		add("var", c, err)
		c, err = e.CountConj(rel, conj...)
		add("conj-count", c, err)
		c, err = e.AvgConj(rel, "x", conj...)
		add("conj-avg", c, err)
		g, err := e.GroupCounts(rel, "cat")
		addGroups("group-count", g, err)
		g, err = e.GroupAvgs(rel, "cat", "x")
		addGroups("group-avg", g, err)
		c, err = e.CountStats(st, pred)
		add("count-stats", c, err)
		c, err = e.SumStats(st, "x", pred)
		add("sum-stats", c, err)
		c, err = e.CountConjStats(st, conj...)
		add("conj-count-stats", c, err)
		g, err = e.GroupSumsStats(st, "cat", "x")
		addGroups("group-sum-stats", g, err)
		c, err = e.PercentileStats(st, "x", pred, 0.5)
		add("quantile-stats", c, err)
		return out
	}

	want := answers(&Estimator{Meta: meta})
	cached := &Estimator{Meta: meta, Cache: NewChannelCache()}
	nominal := cached.Nominal()
	var wantNominal []string
	for pass := 0; pass < 2; pass++ {
		before := cached.Cache.Stats()[kindChannel]
		got := answers(nominal)
		if after := cached.Cache.Stats()[kindChannel]; after != before {
			t.Fatalf("pass %d: nominal runs moved the channel counters from %+v to %+v", pass, before, after)
		}
		if pass == 0 {
			wantNominal = got
		} else if !slices.Equal(got, wantNominal) {
			t.Fatalf("pass %d: nominal answers changed after corrected runs:\n%v\nwant\n%v", pass, got, wantNominal)
		}
		if got := answers(cached); !slices.Equal(got, want) {
			t.Fatalf("pass %d: cached corrected answers differ from uncached:\n%v\nwant\n%v", pass, got, want)
		}
	}
	if slices.Equal(wantNominal, want) {
		t.Fatal("nominal answers equal the corrected ones: the test exercises no correction")
	}
	if ch := cached.Cache.Stats()[kindChannel]; ch.Entries == 0 || ch.Hits == 0 {
		t.Fatalf("corrected runs did not use the channel cache: %+v", ch)
	}
}
