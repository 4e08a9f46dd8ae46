package query

import (
	"math"
	"testing"
)

func TestParseExtensionAggregates(t *testing.T) {
	cases := map[string]AggKind{
		"SELECT median(score) FROM R":   AggMedian,
		"SELECT var(score) FROM R":      AggVar,
		"SELECT variance(score) FROM R": AggVar,
		"SELECT std(score) FROM R":      AggStd,
		"SELECT stddev(score) FROM R":   AggStd,
	}
	for src, want := range cases {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if q.Agg != want || q.AggAttr != "score" {
			t.Fatalf("%q parsed as %v(%s)", src, q.Agg, q.AggAttr)
		}
		// Round trip.
		if _, err := Parse(q.String()); err != nil {
			t.Fatalf("reparse %q: %v", q.String(), err)
		}
	}
}

func TestExecExtensionAggregates(t *testing.T) {
	r := testRelation(t) // scores 4,3,1,5,2,NaN over ME,ME,EE,CS,EE,ME
	q, _ := Parse("SELECT median(score) FROM R")
	res, err := Exec(r, q, nil)
	if err != nil || res.Scalar != 3 {
		t.Fatalf("median = %v, %v", res, err)
	}
	q, _ = Parse("SELECT median(score) FROM R WHERE major = 'EE'")
	res, err = Exec(r, q, nil)
	if err != nil || res.Scalar != 1.5 {
		t.Fatalf("predicate median = %v, %v", res, err)
	}
	q, _ = Parse("SELECT quantile(score, 0.25) FROM R")
	res, err = Exec(r, q, nil)
	if err != nil || res.Scalar != 2 {
		t.Fatalf("quantile = %v, %v", res, err)
	}
	q, _ = Parse("SELECT var(score) FROM R WHERE major = 'EE'")
	res, err = Exec(r, q, nil)
	if err != nil || res.Scalar != 0.25 {
		t.Fatalf("var = %v, %v", res, err)
	}
	q, _ = Parse("SELECT std(score) FROM R WHERE major = 'EE'")
	res, err = Exec(r, q, nil)
	if err != nil || math.Abs(res.Scalar-0.5) > 1e-12 {
		t.Fatalf("std = %v, %v", res, err)
	}
	// Var over a single row errors.
	q, _ = Parse("SELECT var(score) FROM R WHERE major = 'CS'")
	if _, err := Exec(r, q, nil); err == nil {
		t.Fatal("want error for variance of one row")
	}
	// GROUP BY with an extension aggregate is rejected.
	q, _ = Parse("SELECT median(score) FROM R GROUP BY major")
	if _, err := Exec(r, q, nil); err == nil {
		t.Fatal("want error for GROUP BY median")
	}
}
