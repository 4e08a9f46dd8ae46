package core

import (
	"math"
	"strings"
	"testing"

	"privateclean/internal/cleaning"
)

func TestExplain(t *testing.T) {
	r := courseEvals(t, 500)
	view := release(t, r, 0.2, 0.5, 81)
	analyst := NewAnalyst(view)

	// Before cleaning: l counts matching values in the released domain.
	ex, err := analyst.Explain("SELECT count(1) FROM R WHERE major = 'Math'")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Attr != "major" || ex.BaseAttr != "major" || ex.P != 0.2 || ex.N != 5 || ex.L != 1 {
		t.Fatalf("explanation = %+v", ex)
	}
	wantTauN := 0.2 * 1 / 5.0
	if math.Abs(ex.TauN-wantTauN) > 1e-12 || math.Abs(ex.TauP-(0.8+wantTauN)) > 1e-12 {
		t.Fatalf("taus = %+v", ex)
	}
	if ex.Forked || ex.CleanDomainSize != 5 {
		t.Fatalf("pre-cleaning shape = %+v", ex)
	}
	if !strings.Contains(ex.String(), "attr=major") {
		t.Fatalf("String = %q", ex.String())
	}

	// After a merge, l reflects the provenance cut.
	err = analyst.Clean(cleaning.FindReplace{Attr: "major", From: "Mech. Eng.", To: "Mechanical Engineering"})
	if err != nil {
		t.Fatal(err)
	}
	ex, err = analyst.Explain("SELECT count(1) FROM R WHERE major = 'Mechanical Engineering'")
	if err != nil {
		t.Fatal(err)
	}
	if ex.L != 2 {
		t.Fatalf("post-merge l = %v, want 2", ex.L)
	}
	if ex.CleanDomainSize != 4 {
		t.Fatalf("clean domain = %d, want 4", ex.CleanDomainSize)
	}

	// Error paths.
	if _, err := analyst.Explain("not sql"); err == nil {
		t.Fatal("want parse error")
	}
	if _, err := analyst.Explain("SELECT count(1) FROM R"); err == nil {
		t.Fatal("want error for missing WHERE")
	}
	if _, err := analyst.Explain("SELECT count(1) FROM R WHERE a = '1' AND b = '2'"); err == nil {
		t.Fatal("want error for conjunction")
	}
	if _, err := analyst.Explain("SELECT count(1) FROM R WHERE nope = 'x'"); err == nil {
		t.Fatal("want error for unknown attribute")
	}
}
