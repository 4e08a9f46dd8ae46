package estimator

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"privateclean/internal/cleaning"
	"privateclean/internal/provenance"
	"privateclean/internal/relation"
)

// The sufficient-statistics contract: every estimator that has a Stats
// variant must agree with the relation-backed path up to float reassociation
// (per-value accumulation instead of row order). The tolerance below is far
// tighter than any estimator CI, so the two paths are interchangeable for
// analysts.
const statsTol = 1e-9

func relClose(t *testing.T, name string, got, want float64) {
	t.Helper()
	scale := math.Max(math.Abs(want), 1)
	if math.Abs(got-want) > statsTol*scale {
		t.Errorf("%s: stats path = %v, relation path = %v", name, got, want)
	}
}

func estClose(t *testing.T, name string, got, want Estimate) {
	t.Helper()
	relClose(t, name+"/value", got.Value, want.Value)
	relClose(t, name+"/ci", got.CI, want.CI)
}

// collect runs the relation through a Collector in windows.
func collect(t *testing.T, r *relation.Relation, window int) *Statistics {
	t.Helper()
	st, err := CollectStatistics(relation.NewSliceIterator(r, window))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStatsEstimatorsMatchRelation(t *testing.T) {
	r := skewedRel(t)
	v, meta := privatized(t, r, 11, 0.3, 5)
	est := &Estimator{Meta: meta}

	for _, window := range []int{7, 1000} {
		st := collect(t, v, window)
		preds := []Predicate{
			Eq("category", "b"),
			In("category", "d", "e"),
			NotEq("category", "a"),
			{Attr: "category"}, // nil Match: match-all
		}
		for _, pred := range preds {
			wantC, err := est.Count(v, pred)
			if err != nil {
				t.Fatal(err)
			}
			gotC, err := est.CountStats(st, pred)
			if err != nil {
				t.Fatal(err)
			}
			estClose(t, "count "+pred.String(), gotC, wantC)

			wantS, err := est.Sum(v, "value", pred)
			if err != nil {
				t.Fatal(err)
			}
			gotS, err := est.SumStats(st, "value", pred)
			if err != nil {
				t.Fatal(err)
			}
			estClose(t, "sum "+pred.String(), gotS, wantS)

			wantA, err := est.Avg(v, "value", pred)
			if err != nil {
				t.Fatal(err)
			}
			gotA, err := est.AvgStats(st, "value", pred)
			if err != nil {
				t.Fatal(err)
			}
			estClose(t, "avg "+pred.String(), gotA, wantA)

			wantD, err := est.Nominal().Count(v, pred)
			if err != nil {
				t.Fatal(err)
			}
			gotD, err := est.Nominal().CountStats(st, pred)
			if err != nil {
				t.Fatal(err)
			}
			relClose(t, "direct count "+pred.String(), gotD.Value, wantD.Value)
		}

		if got := est.TotalCountStats(st); got != est.TotalCount(v) {
			t.Errorf("total count: %v vs %v", got, est.TotalCount(v))
		}
		wantTS, err := est.TotalSum(v, "value")
		if err != nil {
			t.Fatal(err)
		}
		gotTS, err := est.TotalSumStats(st, "value")
		if err != nil {
			t.Fatal(err)
		}
		estClose(t, "total sum", gotTS, wantTS)
		wantTA, err := est.TotalAvg(v, "value")
		if err != nil {
			t.Fatal(err)
		}
		gotTA, err := est.TotalAvgStats(st, "value")
		if err != nil {
			t.Fatal(err)
		}
		estClose(t, "total avg", gotTA, wantTA)

		wantG, err := est.GroupCounts(v, "category")
		if err != nil {
			t.Fatal(err)
		}
		gotG, err := est.GroupCountsStats(st, "category")
		if err != nil {
			t.Fatal(err)
		}
		if len(gotG) != len(wantG) {
			t.Fatalf("group counts: %d groups vs %d", len(gotG), len(wantG))
		}
		for k, want := range wantG {
			estClose(t, "group count "+k, gotG[k], want)
		}
		wantGS, err := est.GroupSums(v, "category", "value")
		if err != nil {
			t.Fatal(err)
		}
		gotGS, err := est.GroupSumsStats(st, "category", "value")
		if err != nil {
			t.Fatal(err)
		}
		for k, want := range wantGS {
			estClose(t, "group sum "+k, gotGS[k], want)
		}
		wantGA, err := est.GroupAvgs(v, "category", "value")
		if err != nil {
			t.Fatal(err)
		}
		gotGA, err := est.GroupAvgsStats(st, "category", "value")
		if err != nil {
			t.Fatal(err)
		}
		if len(gotGA) != len(wantGA) {
			t.Fatalf("group avgs: %d groups vs %d", len(gotGA), len(wantGA))
		}
		for k, want := range wantGA {
			estClose(t, "group avg "+k, gotGA[k], want)
		}
		wantDG, err := est.Nominal().GroupCounts(v, "category")
		if err != nil {
			t.Fatal(err)
		}
		gotDG, err := est.Nominal().GroupCountsStats(st, "category")
		if err != nil {
			t.Fatal(err)
		}
		for k, want := range wantDG {
			relClose(t, "direct group "+k, gotDG[k].Value, want.Value)
		}
	}
}

// TestStatsWithProvenance: the channel resolution (provenance cut) is shared
// between the paths, so a cleaned view's corrected estimates agree too.
func TestStatsWithProvenance(t *testing.T) {
	r := skewedRel(t)
	v, meta := privatized(t, r, 23, 0.25, 0)
	prov := provenance.NewStore()
	ctx := &cleaning.Context{Rel: v, Prov: prov, Meta: meta}
	if err := cleaning.Apply(ctx,
		cleaning.FindReplace{Attr: "category", From: "e", To: "d"},
		cleaning.Transform{Attr: "category", Label: "upper", F: strings.ToUpper}); err != nil {
		t.Fatal(err)
	}
	est := &Estimator{Meta: meta, Prov: prov}
	st := collect(t, v, 64)
	for _, pred := range []Predicate{Eq("category", "D"), NotEq("category", "A")} {
		want, err := est.Count(v, pred)
		if err != nil {
			t.Fatal(err)
		}
		got, err := est.CountStats(st, pred)
		if err != nil {
			t.Fatal(err)
		}
		estClose(t, "cleaned count "+pred.String(), got, want)
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	r := skewedRel(t)
	v, meta := privatized(t, r, 5, 0.3, 2)
	st := collect(t, v, 100)
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back Statistics
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	est := &Estimator{Meta: meta}
	pred := Eq("category", "c")
	want, err := est.CountStats(st, pred)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.CountStats(&back, pred)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round-tripped estimate %v, want %v", got, want)
	}
	wantS, err := est.SumStats(st, "value", pred)
	if err != nil {
		t.Fatal(err)
	}
	gotS, err := est.SumStats(&back, "value", pred)
	if err != nil {
		t.Fatal(err)
	}
	if gotS != wantS {
		t.Fatalf("round-tripped sum %v, want %v", gotS, wantS)
	}
}

func TestCollectorSchemaMismatch(t *testing.T) {
	r := skewedRel(t)
	c := NewCollector()
	if err := c.Add(r); err != nil {
		t.Fatal(err)
	}
	other := relation.New(relation.MustSchema(relation.Column{Name: "x", Kind: relation.Discrete}))
	if err := c.Add(other); err == nil {
		t.Fatal("want schema mismatch error")
	}
}

func TestStatsMissingAttributes(t *testing.T) {
	r := skewedRel(t)
	v, meta := privatized(t, r, 9, 0.3, 0)
	st := collect(t, v, 100)
	est := &Estimator{Meta: meta}
	if _, err := est.CountStats(st, Eq("category", "a")); err != nil {
		t.Fatal(err)
	}
	// The channel resolves (category is in meta) but the statistics lack the
	// attribute under a different name.
	if _, err := est.SumStats(st, "nope", Eq("category", "a")); err == nil {
		t.Fatal("want error for unknown aggregate")
	}
	if _, err := est.Nominal().CountStats(st, Predicate{Attr: "nope"}); err == nil {
		t.Fatal("want error for unknown attribute")
	}
	if _, err := est.GroupCountsStats(st, "nope"); err == nil {
		t.Fatal("want error for unknown group attribute")
	}
}

func TestStatsEmpty(t *testing.T) {
	st := NewCollector().Statistics()
	est := &Estimator{}
	if got := est.TotalCountStats(st); got.Value != 0 {
		t.Fatalf("empty total count = %v", got.Value)
	}
	if _, err := est.TotalSumStats(st, "value"); err == nil {
		t.Fatal("want error for empty statistics sum")
	}
}

// TestCollectorCloneIsDeep: a clone shares no mutable state with its
// original — Add on the clone leaves the original's JSON bytes unchanged —
// and accumulates exactly like a collector resumed from the original's
// JSON, histograms, per-value bins and joints included.
func TestCollectorCloneIsDeep(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "major", Kind: relation.Discrete},
		relation.Column{Name: "minor", Kind: relation.Discrete},
		relation.Column{Name: "score", Kind: relation.Numeric},
	)
	window := func(scores []float64, majors, minors []string) *relation.Relation {
		r, err := relation.FromColumns(schema,
			map[string][]float64{"score": scores},
			map[string][]string{"major": majors, "minor": minors})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	orig, err := NewCollectorWith(CollectOpts{
		BinEdges: map[string][]float64{"score": {0, 10, 20}},
		Joints:   [][2]string{{"major", "minor"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Add(window([]float64{1, math.NaN(), 15}, []string{"CS", "EE", "CS"}, []string{"x", "y", "y"})); err != nil {
		t.Fatal(err)
	}
	// A conjunction query memoizes each joint's sorted table; the clone
	// starts without one.
	joint, _ := orig.Statistics().Joint("major", "minor")
	memo := joint.joint()
	before, err := json.Marshal(orig.Statistics())
	if err != nil {
		t.Fatal(err)
	}
	resumed := func() *Collector {
		var st Statistics
		if err := json.Unmarshal(before, &st); err != nil {
			t.Fatal(err)
		}
		c, err := NewCollectorFrom(&st)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}()

	clone := orig.Clone()
	if cj, _ := clone.Statistics().Joint("major", "minor"); cj.table.Load() != nil {
		t.Fatal("clone kept the original's joint-table memo")
	}
	more := window([]float64{5, 25, math.NaN(), 12}, []string{"CS", "ME", "EE", "CS"}, []string{"y", "x", "z", "x"})
	for _, c := range []*Collector{clone, resumed} {
		if err := c.Add(more); err != nil {
			t.Fatal(err)
		}
	}
	after, err := json.Marshal(orig.Statistics())
	if err != nil {
		t.Fatal(err)
	}
	if joint.table.Load() != memo {
		t.Fatal("Add on the clone reset the original's joint-table memo")
	}
	if string(after) != string(before) {
		t.Fatalf("Add on the clone changed the original:\n%s\nvs\n%s", after, before)
	}
	got, err := json.Marshal(clone.Statistics())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(resumed.Statistics())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("clone accumulated differently from a JSON-resumed collector:\n%s\nvs\n%s", got, want)
	}
	if empty := NewCollector().Clone(); empty.Statistics().Rows != 0 || len(empty.Statistics().Columns) != 0 {
		t.Fatal("clone of an empty collector is not empty")
	}
}
