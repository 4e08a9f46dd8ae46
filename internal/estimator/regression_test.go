package estimator

// Regression tests for four estimator edge-case bugs. Each test documents
// the pre-fix failure mode and fails against the pre-fix code.

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

// metaFor builds minimal view metadata for a category/value relation.
func metaFor(p float64, domain ...string) *privacy.ViewMeta {
	return &privacy.ViewMeta{
		Discrete: map[string]privacy.DiscreteMeta{
			"category": {Name: "category", P: p, Domain: domain},
		},
		Numeric: map[string]privacy.NumericMeta{"value": {Name: "value", B: 0}},
	}
}

func catValRel(t *testing.T, cats []string, vals []float64) *relation.Relation {
	t.Helper()
	r, err := relation.FromColumns(testSchema,
		map[string][]float64{"value": vals},
		map[string][]string{"category": cats})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// A Predicate with a nil Match means "match all" everywhere a predicate is
// consumed (matchTable documents the contract). The channel resolver and the
// conjunction estimator used to dereference pred.Match unconditionally and
// panicked instead.
func TestNilMatchPredicateMeansMatchAll(t *testing.T) {
	r := catValRel(t,
		[]string{"a", "a", "b", "b"},
		[]float64{1, 2, 3, 4})
	est := &Estimator{Meta: metaFor(0.25, "a", "b")}
	all := Predicate{Attr: "category"} // nil Match

	c, err := est.Count(r, all)
	if err != nil {
		t.Fatalf("Count with nil Match: %v", err)
	}
	// Match-all has l = N, so tau_n = p and the inversion returns S exactly.
	if math.Abs(c.Value-4) > 1e-9 {
		t.Fatalf("Count with nil Match = %v, want 4", c.Value)
	}

	cc, err := est.CountConj(r, all)
	if err != nil {
		t.Fatalf("CountConj with nil Match: %v", err)
	}
	if math.Abs(cc.Value-4) > 1e-9 {
		t.Fatalf("CountConj with nil Match = %v, want 4", cc.Value)
	}

	sum, err := est.Sum(r, "value", all)
	if err != nil {
		t.Fatalf("Sum with nil Match: %v", err)
	}
	if math.Abs(sum.Value-10) > 1e-9 {
		t.Fatalf("Sum with nil Match = %v, want 10", sum.Value)
	}

	// Not(match-all) matches nothing rather than panicking.
	none := Not(all)
	if none.Match("a") {
		t.Fatal("Not(match-all) should match nothing")
	}
}

// GroupAvgs used to swallow *every* per-group error with continue. A real
// failure — here a missing aggregate column — must propagate, not vanish
// into an empty result.
func TestGroupAvgsPropagatesRealErrors(t *testing.T) {
	r := catValRel(t,
		[]string{"a", "a", "b", "b"},
		[]float64{1, 2, 3, 4})
	est := &Estimator{Meta: metaFor(0.25, "a", "b")}

	_, err := est.GroupAvgs(r, "category", "nosuchcol")
	if err == nil {
		t.Fatal("GroupAvgs with a missing aggregate column returned nil error")
	}
	if !strings.Contains(err.Error(), "nosuchcol") {
		t.Fatalf("GroupAvgs error %q does not name the missing column", err)
	}
}

// Genuine zero-estimated-count groups are still skipped, not fatal: with
// S = 10, p = 0.5, N = 5, and an Eq predicate (l = 1), S·tau_n = 1, so a
// group holding exactly one private row estimates to exactly zero.
func TestGroupAvgsSkipsZeroCountGroups(t *testing.T) {
	cats := []string{"a", "a", "a", "b", "b", "b", "c", "c", "d", "e"}
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	r := catValRel(t, cats, vals)
	est := &Estimator{Meta: metaFor(0.5, "a", "b", "c", "d", "e")}

	groups, err := est.GroupAvgs(r, "category", "value")
	if err != nil {
		t.Fatalf("GroupAvgs: %v", err)
	}
	for _, zero := range []string{"d", "e"} {
		if _, ok := groups[zero]; ok {
			t.Fatalf("group %q has estimated count zero and should be omitted", zero)
		}
	}
	for _, keep := range []string{"a", "b", "c"} {
		if _, ok := groups[keep]; !ok {
			t.Fatalf("group %q missing from GroupAvgs result %v", keep, groups)
		}
	}

	// The sentinel is inspectable by callers too.
	_, err = est.Avg(r, "value", Eq("category", "e"))
	if !errors.Is(err, ErrZeroEstimatedCount) {
		t.Fatalf("Avg on a zero-count group: got %v, want ErrZeroEstimatedCount", err)
	}
}

// The delta-method ratio interval is undefined at h-hat = 0; the relative
// form used to drop the sum term there, collapsing the CI to zero exactly
// where the sum estimate is least certain. The absolute fallback keeps it
// positive.
func TestAvgCIAtZeroSum(t *testing.T) {
	// p = 0: the sum estimate equals the observed matched sum, +1 - 1 = 0.
	r := catValRel(t,
		[]string{"a", "a", "b", "b"},
		[]float64{1, -1, 5, 5})
	est := &Estimator{Meta: metaFor(0, "a", "b")}

	e, err := est.Avg(r, "value", Eq("category", "a"))
	if err != nil {
		t.Fatalf("Avg: %v", err)
	}
	if e.Value != 0 {
		t.Fatalf("Avg value = %v, want 0", e.Value)
	}
	if !(e.CI > 0) {
		t.Fatalf("Avg CI = %v at h-hat = 0, want > 0 (sum uncertainty must survive)", e.CI)
	}
	// The fallback is CI_sum/|c-hat| combined with the (here zero) count term.
	h, err := est.Sum(r, "value", Eq("category", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if want := h.CI / 2; math.Abs(e.CI-want) > 1e-9 {
		t.Fatalf("Avg CI = %v, want CI_sum/|c-hat| = %v", e.CI, want)
	}

	ec, err := est.AvgConj(r, "value", Eq("category", "a"))
	if err != nil {
		t.Fatalf("AvgConj: %v", err)
	}
	if ec.Value != 0 || !(ec.CI > 0) {
		t.Fatalf("AvgConj = %+v at h-hat = 0, want value 0 with CI > 0", ec)
	}
}

// conjStatistics excludes NaN aggregate cells from the sum accumulators but
// used to divide by the full row count when centering the sum variance,
// understating it whenever NaNs are present.
func TestConjSumVarianceUsesNonNaNDenominator(t *testing.T) {
	r := catValRel(t,
		[]string{"a", "a", "a", "a"},
		[]float64{2, 4, math.NaN(), math.NaN()})
	est := &Estimator{Meta: metaFor(0, "a", "b")}

	e, err := est.SumConj(r, "value", Eq("category", "a"))
	if err != nil {
		t.Fatalf("SumConj: %v", err)
	}
	if math.Abs(e.Value-6) > 1e-9 {
		t.Fatalf("SumConj value = %v, want 6", e.Value)
	}
	z, err := stats.ZScore(0.95)
	if err != nil {
		t.Fatal(err)
	}
	// With p = 0 every matching row has weight 1: h2 = 4 + 16 = 20,
	// h = 6, and 2 non-NaN rows give sumVar = 20 - 36/2 = 2. The pre-fix
	// denominator of 4 rows gave 20 - 36/4 = 11.
	if want := z * math.Sqrt(2); math.Abs(e.CI-want) > 1e-9 {
		t.Fatalf("SumConj CI = %v, want %v (variance centered on non-NaN rows)", e.CI, want)
	}
}

// The channel cache must be transparent: identical estimates with and
// without it, under concurrency.
func TestChannelCacheEquivalence(t *testing.T) {
	r := skewedRel(t)
	meta := &privacy.ViewMeta{
		Discrete: map[string]privacy.DiscreteMeta{
			"category": {Name: "category", P: 0.25, Domain: []string{"a", "b", "c", "d", "e"}},
		},
		Numeric: map[string]privacy.NumericMeta{"value": {Name: "value", B: 0}},
	}
	plain := &Estimator{Meta: meta}
	cached := &Estimator{Meta: meta, Cache: NewChannelCache()}

	preds := []Predicate{
		Eq("category", "a"), Eq("category", "b"), In("category", "c", "d"),
		NotEq("category", "e"), {Attr: "category"}, // nil Match
	}
	check := func(t *testing.T) {
		for _, pred := range preds {
			pc, err1 := plain.Count(r, pred)
			cc, err2 := cached.Count(r, pred)
			if err1 != nil || err2 != nil {
				t.Fatalf("Count(%s): %v / %v", pred, err1, err2)
			}
			if pc != cc {
				t.Fatalf("Count(%s): plain %+v != cached %+v", pred, pc, cc)
			}
			ps, err1 := plain.Sum(r, "value", pred)
			cs, err2 := cached.Sum(r, "value", pred)
			if err1 != nil || err2 != nil {
				t.Fatalf("Sum(%s): %v / %v", pred, err1, err2)
			}
			if ps != cs {
				t.Fatalf("Sum(%s): plain %+v != cached %+v", pred, ps, cs)
			}
		}
	}
	check(t) // cold cache
	check(t) // warm cache

	// Count and Sum are served from channels and the per-code table; they
	// pin no joint tables.
	st := cached.Cache.Stats()
	if chans, tables := cached.Cache.Len(); chans == 0 || tables != 0 || st[kindPerCode].Entries == 0 {
		t.Fatalf("cache use: %d channels, %d joint tables, %d per-code tables resident; want channels and per-code tables, no joint tables",
			chans, tables, st[kindPerCode].Entries)
	}

	// Hammer the shared cached estimator from many goroutines (the race
	// detector in `make race` is the real assertion here).
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				pred := preds[i%len(preds)]
				if _, err := cached.Count(r, pred); err != nil {
					t.Error(err)
					return
				}
				if _, err := cached.Avg(r, "value", pred); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
