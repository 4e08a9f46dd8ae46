package core

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"privateclean/internal/estimator"
	"privateclean/internal/faults"
)

func TestAnalystExtensionAggregates(t *testing.T) {
	r := courseEvals(t, 1000)
	view := release(t, r, 0.1, 0.4, 51)
	analyst := NewAnalyst(view)

	med, err := analyst.Query("SELECT median(score) FROM evals")
	if err != nil {
		t.Fatal(err)
	}
	// Scores cycle 0.5..4.5 uniformly; the true median is 2.5 and Laplace
	// noise has median 0.
	if math.Abs(med.PrivateClean.Value-2.5) > 0.4 {
		t.Fatalf("median = %v, want ~2.5", med.PrivateClean.Value)
	}

	vr, err := analyst.Query("SELECT var(score) FROM evals")
	if err != nil {
		t.Fatal(err)
	}
	// Uniform over {0.5..4.5}: variance = 2. The corrected estimate should
	// strip the 2b² = 0.32 noise term; the direct one keeps it.
	if math.Abs(vr.PrivateClean.Value-2) > 0.5 {
		t.Fatalf("var = %v, want ~2", vr.PrivateClean.Value)
	}
	if vr.Direct <= vr.PrivateClean.Value {
		t.Fatalf("direct var %v should exceed corrected %v", vr.Direct, vr.PrivateClean.Value)
	}

	sd, err := analyst.Query("SELECT std(score) FROM evals WHERE major = 'Math'")
	if err != nil {
		t.Fatal(err)
	}
	if sd.PrivateClean.Value < 0 || sd.PrivateClean.Value > 3 {
		t.Fatalf("std = %v", sd.PrivateClean.Value)
	}

	medPred, err := analyst.Query("SELECT median(score) FROM evals WHERE major = 'Math'")
	if err != nil {
		t.Fatal(err)
	}
	// Math majors (index 3 of 5) all scored 3.5 in the generator.
	if math.Abs(medPred.PrivateClean.Value-3.5) > 1.2 {
		t.Fatalf("predicate median = %v, want ~3.5", medPred.PrivateClean.Value)
	}
}

// quantile(a, q) is answered with and without WHERE, by the same estimator
// the CLI and the server use; it once fell through Analyst.Run as 0 ± 0.
func TestAnalystQuantile(t *testing.T) {
	view := release(t, courseEvals(t, 1000), 0.1, 0.4, 53)
	analyst := NewAnalyst(view)
	for _, tc := range []struct {
		sql  string
		pred estimator.Predicate
	}{
		{"SELECT quantile(score, 0.9) FROM evals", estimator.Predicate{}},
		{"SELECT quantile(score, 0.9) FROM evals WHERE major = 'Math'", estimator.Eq("major", "Math")},
	} {
		res, err := analyst.Query(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		want, err := analyst.Estimator().Percentile(analyst.Relation(), "score", tc.pred, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if res.PrivateClean != want || res.PrivateClean.CI == 0 {
			t.Fatalf("%s = %v, want %v", tc.sql, res.PrivateClean, want)
		}
		if res.Direct != want.Value {
			t.Fatalf("%s: direct = %v, want the estimate's value %v", tc.sql, res.Direct, want.Value)
		}
	}
}

// GROUP BY bin(a) answers count, sum and avg in bin order, as on the CLI
// and the server.
func TestAnalystGroupByBin(t *testing.T) {
	view := release(t, courseEvals(t, 1000), 0.1, 0.4, 55)
	analyst := NewAnalyst(view)
	est, rel := analyst.Estimator(), analyst.Relation()
	counts, err1 := est.GroupBinCounts(rel, "score")
	sums, err2 := est.GroupBinSums(rel, "score", "score")
	avgs, err3 := est.GroupBinAvgs(rel, "score", "score")
	if err := errors.Join(err1, err2, err3); err != nil {
		t.Fatal(err)
	}
	for sql, want := range map[string][]estimator.BinEstimate{
		"SELECT count(1) FROM evals GROUP BY bin(score)":   counts,
		"SELECT sum(score) FROM evals GROUP BY bin(score)": sums,
		"SELECT avg(score) FROM evals GROUP BY bin(score)": avgs,
	} {
		res, err := analyst.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !res.IsGroupBy() || res.Groups != nil || !reflect.DeepEqual(res.Bins, want) || len(want) == 0 {
			t.Fatalf("%s: bins = %+v, groups = %+v, want bins %+v", sql, res.Bins, res.Groups, want)
		}
	}
}

// The Analyst's refusals are the executor's typed bad-query errors, with
// the same hints the CLI and the server give.
func TestAnalystTypedRefusals(t *testing.T) {
	analyst := NewAnalyst(release(t, courseEvals(t, 200), 0.1, 0.4, 57))
	for sql, hint := range map[string]string{
		"SELECT median(score) FROM evals GROUP BY major":                           "GROUP BY supports count(1), sum, and avg only",
		"SELECT median(score) FROM evals GROUP BY bin(score)":                      "GROUP BY bin(score) supports count(1), sum, and avg only",
		"SELECT var(score) FROM evals WHERE major = 'Math' AND major != 'History'": "var does not support AND conjunctions",
		"SELECT count(1) FROM evals WHERE nosuch(major)":                           `unknown UDF "nosuch"`,
		"SELECT count(1) FROM evals WHERE nope = 'x'":                              `"nope"`,
	} {
		_, err := analyst.Query(sql)
		if !errors.Is(err, faults.ErrBadQuery) || !strings.Contains(err.Error(), hint) {
			t.Errorf("%s: err = %v, want a bad-query error naming %q", sql, err, hint)
		}
	}
}
