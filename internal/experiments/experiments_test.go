package experiments

import (
	"strings"
	"testing"
)

// fastConfig keeps the experiment tests quick while still exercising every
// code path; the full paper protocol (100 trials) runs in cmd/experiments
// and the benchmarks.
func fastConfig() Config {
	cfg := Default()
	cfg.Trials = 6
	return cfg
}

func checkTables(t *testing.T, tables []*Table, wantIDs ...string) {
	t.Helper()
	if len(tables) != len(wantIDs) {
		t.Fatalf("got %d tables, want %d", len(tables), len(wantIDs))
	}
	for i, tb := range tables {
		if tb.ID != wantIDs[i] {
			t.Fatalf("table %d id = %q, want %q", i, tb.ID, wantIDs[i])
		}
		if len(tb.Points) == 0 {
			t.Fatalf("table %q has no points", tb.ID)
		}
		for _, p := range tb.Points {
			for _, s := range tb.Series {
				v, ok := p.Values[s]
				if !ok {
					continue // some series may be absent at degenerate points
				}
				if v < 0 {
					t.Fatalf("table %q series %q has negative error %v", tb.ID, s, v)
				}
			}
		}
		out := tb.Format()
		if !strings.Contains(out, tb.XLabel) {
			t.Fatalf("Format() missing x label for %q", tb.ID)
		}
	}
}

func TestDefaultParamsTable(t *testing.T) {
	tb := DefaultParams()
	if tb.ID != "table1" || len(tb.Points) != 6 {
		t.Fatalf("table1 = %+v", tb)
	}
	if !strings.Contains(tb.Format(), "Zipfian skew") {
		t.Fatal("missing parameter row")
	}
}

func TestFigure2(t *testing.T) {
	tables, err := Figure2(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, "fig2a", "fig2b", "fig2c", "fig2d")
	// Count is exactly unaffected by b (common random numbers make the
	// whole series identical).
	c := tables[2]
	first := c.Points[0].Values[SeriesDirect]
	for _, p := range c.Points {
		if p.Values[SeriesDirect] != first {
			t.Fatalf("fig2c count should be constant in b: %v vs %v", first, p.Values[SeriesDirect])
		}
	}
	// Sum error grows with b for the corrected estimator.
	d := tables[3]
	lo := d.Points[0].Values[SeriesPrivateClean]
	hi := d.Points[len(d.Points)-1].Values[SeriesPrivateClean]
	if hi < lo {
		t.Fatalf("fig2d sum error should grow with b: %v -> %v", lo, hi)
	}
}

func TestFigure3(t *testing.T) {
	tables, err := Figure3(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, "fig3a", "fig3b")
}

func TestFigure4(t *testing.T) {
	tables, err := Figure4(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, "fig4a", "fig4b")
}

func TestFigure5(t *testing.T) {
	tables, err := Figure5(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, "fig5a", "fig5b")
	// PrivateClean error is exactly constant across rename rates (the
	// bijective rename commutes with estimation under common random
	// numbers) while the provenance-free correction degrades.
	countT := tables[1]
	base := countT.Points[1].Values[SeriesPrivateClean]
	last := countT.Points[len(countT.Points)-1]
	if last.Values[SeriesPrivateClean] > base*1.5 {
		t.Fatalf("PrivateClean should stay ~constant: %v -> %v", base, last.Values[SeriesPrivateClean])
	}
	if last.Values[SeriesPCNoProv] <= last.Values[SeriesPrivateClean] {
		t.Fatalf("PC-NoProv (%v) should exceed PrivateClean (%v) at high error rate",
			last.Values[SeriesPCNoProv], last.Values[SeriesPrivateClean])
	}
}

func TestFigure6(t *testing.T) {
	tables, err := Figure6(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, "fig6a", "fig6b")
	// At merge rate 0 there is no cleaning, so the provenance-free
	// correction coincides with PrivateClean.
	p0 := tables[1].Points[0]
	if p0.Values[SeriesPCNoProv] != p0.Values[SeriesPrivateClean] {
		t.Fatalf("at merge rate 0 PC-NoProv (%v) should equal PrivateClean (%v)",
			p0.Values[SeriesPCNoProv], p0.Values[SeriesPrivateClean])
	}
}

func TestFigure7(t *testing.T) {
	cfg := fastConfig()
	cfg.Trials = 10
	tables, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, "fig7a", "fig7b")
	// Weighted cut beats unweighted beats Direct on average over the sweep
	// (the paper's headline ordering; individual points can tie at this
	// trial count).
	var w, u, d float64
	for _, p := range tables[0].Points {
		w += p.Values[SeriesPCWeighted]
		u += p.Values[SeriesPCUnweighted]
		d += p.Values[SeriesDirect]
	}
	if !(w < u && u < d) {
		t.Fatalf("ordering violated: PC-W=%v PC-U=%v Direct=%v", w, u, d)
	}
}

func TestFigure8(t *testing.T) {
	cfg := fastConfig()
	cfg.Trials = 3
	tables, err := Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, "fig8a", "fig8b")
	// PrivateClean beats Direct on the FD experiment at every corruption
	// level.
	for _, p := range tables[0].Points {
		if p.Values[SeriesPrivateClean] >= p.Values[SeriesDirect] {
			t.Fatalf("fig8a: PrivateClean (%v) should beat Direct (%v) at x=%v",
				p.Values[SeriesPrivateClean], p.Values[SeriesDirect], p.X)
		}
	}
}

func TestFigure9(t *testing.T) {
	tables, err := Figure9(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, "fig9a", "fig9b")
	// Accuracy degrades from the low-distinct regime to the high-distinct
	// regime (the paper's headline for this figure).
	pts := tables[1].Points
	if pts[0].Values[SeriesPrivateClean] >= pts[len(pts)-1].Values[SeriesPrivateClean] {
		t.Fatalf("fig9: error should grow with distinct fraction: %v -> %v",
			pts[0].Values[SeriesPrivateClean], pts[len(pts)-1].Values[SeriesPrivateClean])
	}
}

func TestFigure10(t *testing.T) {
	cfg := fastConfig()
	cfg.Trials = 3
	tables, err := Figure10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, "fig10a", "fig10b")
	// The dirty-no-privacy reference is constant across p.
	ref := tables[0].Points[0].Values[SeriesDirtyNoPriv]
	for _, p := range tables[0].Points {
		if p.Values[SeriesDirtyNoPriv] != ref {
			t.Fatal("dirty reference should not depend on p")
		}
	}
	// At high privacy the cleaned private count is still better than the
	// dirty original (the paper's counter-intuitive crossover).
	last := tables[0].Points[len(tables[0].Points)-1]
	if last.Values[SeriesPrivateClean] >= ref {
		t.Fatalf("cleaned private (%v) should beat dirty (%v)", last.Values[SeriesPrivateClean], ref)
	}
}

func TestFigure11(t *testing.T) {
	cfg := fastConfig()
	cfg.Trials = 3
	tables, err := Figure11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, "fig11a", "fig11b")
}

func TestTheorem2Validation(t *testing.T) {
	cfg := fastConfig()
	cfg.Trials = 40
	tb, err := Theorem2Validation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tb.ID != "thm2" || len(tb.Points) == 0 {
		t.Fatalf("thm2 = %+v", tb)
	}
	for _, p := range tb.Points {
		emp := p.Values["empirical P[all] %"]
		target := p.Values["target %"]
		// Allow sampling slack below the target at 40 trials.
		if emp < target-10 {
			t.Fatalf("%s: empirical %v far below target %v", p.Label, emp, target)
		}
	}
}

func TestTunerValidation(t *testing.T) {
	cfg := fastConfig()
	cfg.Trials = 20
	tb, err := TunerValidation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tb.ID != "tuner" {
		t.Fatalf("tuner = %+v", tb)
	}
	for _, p := range tb.Points {
		if p.Values["within target %"] < 80 {
			t.Fatalf("target %v held only %v%% of the time", p.X, p.Values["within target %"])
		}
		if p.Values["tuned p"] <= 0 || p.Values["tuned p"] >= 1 {
			t.Fatalf("tuned p = %v", p.Values["tuned p"])
		}
	}
}

func TestTableFormatAlignment(t *testing.T) {
	tb := &Table{
		ID: "x", Title: "T", XLabel: "x",
		Series: []string{"a", "b"},
		Points: []Point{
			{X: 1, Values: map[string]float64{"a": 1.23456, "b": 2}},
			{Label: "custom", Values: map[string]float64{"a": 3}},
		},
	}
	out := tb.Format()
	if !strings.Contains(out, "custom") {
		t.Fatalf("missing label row:\n%s", out)
	}
	if !strings.Contains(out, "1.2346") {
		t.Fatalf("missing rounded value:\n%s", out)
	}
	// Missing series renders as "-".
	if !strings.Contains(out, "-") {
		t.Fatalf("missing placeholder:\n%s", out)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1.5:    "1.5",
		2:      "2",
		0:      "0",
		0.1234: "0.1234",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestPickValues(t *testing.T) {
	rng := trialRNG(1, 0, 0)
	dom := []string{"a", "b", "c"}
	got := pickValues(rng, dom, 5)
	if len(got) != 3 {
		t.Fatalf("pickValues should clamp: %v", got)
	}
	got = pickValues(rng, dom, 2)
	if len(got) != 2 || got[0] >= got[1] {
		t.Fatalf("pickValues should sort: %v", got)
	}
}
