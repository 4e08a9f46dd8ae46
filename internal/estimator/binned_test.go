package estimator

import (
	"errors"
	"testing"

	"privateclean/internal/faults"
	"privateclean/internal/privacy"
)

func TestPercentileStatsClampsNegativeBins(t *testing.T) {
	// Estimate with a wildly inflated claimed flip probability: bins where
	// the matched count is below t_k·τ_n invert to negative counts, which
	// must clamp at zero rather than reach HistQuantileBin (which rejects
	// negatives). The estimate stays finite and inside the released range.
	r := quantRel(t)
	v, meta := privatized(t, r, 7, 0.1, 0)
	st := collectWith(t, v, meta, nil)
	est := &Estimator{Meta: metaWithP(meta, 0.9), Confidence: 0.95}
	e, err := est.PercentileStats(st, "value", Eq("category", "x"), 0.5)
	if err != nil {
		t.Fatalf("clamped quantile: %v", err)
	}
	edges := meta.Numeric["value"].BinEdges()
	if e.Value < edges[0] || e.Value > edges[len(edges)-1] {
		t.Errorf("quantile %v outside released range [%v, %v]", e.Value, edges[0], edges[len(edges)-1])
	}
}

func TestPercentileStatsEndpoints(t *testing.T) {
	r := quantRel(t)
	v, meta := privatized(t, r, 7, 0.1, 0)
	st := collectWith(t, v, meta, nil)
	est := &Estimator{Meta: meta, Confidence: 0.95}
	lo, err := est.PercentileStats(st, "value", Predicate{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := est.PercentileStats(st, "value", Predicate{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Value >= hi.Value {
		t.Errorf("q=0 gave %v, q=1 gave %v: want a nondegenerate ordering", lo.Value, hi.Value)
	}
	mid, err := est.PercentileStats(st, "value", Predicate{}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Value < lo.Value || mid.Value > hi.Value {
		t.Errorf("median %v outside [q0, q1] = [%v, %v]", mid.Value, lo.Value, hi.Value)
	}
}

func TestPercentileStatsNoHistogramIsTyped(t *testing.T) {
	r := quantRel(t)
	v, meta := privatized(t, r, 7, 0.1, 0)
	st := collect(t, v, 256) // no -meta: no histograms recorded
	est := &Estimator{Meta: meta, Confidence: 0.95}
	_, err := est.PercentileStats(st, "value", Eq("category", "x"), 0.5)
	if !errors.Is(err, faults.ErrBadQuery) {
		t.Fatalf("quantile without histograms: got %v, want faults.ErrBadQuery", err)
	}
}

func TestPercentileStatsEmptyPredicate(t *testing.T) {
	r := quantRel(t)
	v, meta := privatized(t, r, 7, 0.1, 0)
	st := collectWith(t, v, meta, nil)
	est := &Estimator{Meta: meta, Confidence: 0.95}
	_, err := est.PercentileStats(st, "value", Eq("category", "zzz"), 0.5)
	if !errors.Is(err, ErrZeroEstimatedCount) {
		t.Fatalf("quantile over an empty group: got %v, want ErrZeroEstimatedCount", err)
	}
}

// Statistics read from JSON may record a value's bins under a layout other
// than the histogram's: the quantile refuses them as bad metadata rather
// than filing counts under another value's codes.
func TestPercentileStatsRejectsMisshapenBins(t *testing.T) {
	r := quantRel(t)
	v, meta := privatized(t, r, 7, 0.1, 0)
	st := collectWith(t, v, meta, nil)
	s := st.Discrete["category"]["x"]
	s.Bins["value"] = append(s.Bins["value"], 1)
	est := &Estimator{Meta: meta, Confidence: 0.95}
	if _, err := est.PercentileStats(st, "value", Eq("category", "y"), 0.5); !errors.Is(err, faults.ErrBadMeta) {
		t.Fatalf("quantile over misshapen bins: got %v, want faults.ErrBadMeta", err)
	}
}

func TestGroupBinCountsNoLayoutIsTyped(t *testing.T) {
	r := quantRel(t)
	v, meta := privatized(t, r, 7, 0.1, 0)
	stripped := *meta
	stripped.Numeric = nil
	est := &Estimator{Meta: &stripped, Confidence: 0.95}
	if _, err := est.GroupBinCounts(v, "value"); err == nil {
		t.Fatal("GroupBinCounts without numeric metadata: want error, got none")
	}
	// Metadata present but without a released layout (Bins = 0).
	noBins := *meta
	noBins.Numeric = map[string]privacy.NumericMeta{}
	for k, nm := range meta.Numeric {
		nm.Bins = 0
		noBins.Numeric[k] = nm
	}
	est = &Estimator{Meta: &noBins, Confidence: 0.95}
	_, err := est.GroupBinCounts(v, "value")
	if !errors.Is(err, faults.ErrBadQuery) {
		t.Fatalf("GroupBinCounts without a bin layout: got %v, want faults.ErrBadQuery", err)
	}
}

func TestGroupBinCountsStatsMatchesResident(t *testing.T) {
	// The collector bins with the released edges, so the stats path must be
	// byte-identical to the resident path, bin for bin.
	r := quantRel(t)
	v, meta := privatized(t, r, 11, 0.2, 1.5)
	st := collectWith(t, v, meta, nil)
	est := &Estimator{Meta: meta, Confidence: 0.95}
	resident, err := est.GroupBinCounts(v, "value")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := est.GroupBinCountsStats(st, "value")
	if err != nil {
		t.Fatal(err)
	}
	if len(resident) != len(stats) {
		t.Fatalf("bin count mismatch: resident %d, stats %d", len(resident), len(stats))
	}
	for k := range resident {
		if resident[k] != stats[k] {
			t.Errorf("bin %d: resident %+v != stats %+v", k, resident[k], stats[k])
		}
	}
}

func TestGroupBinSumsConsistentWithTotals(t *testing.T) {
	// The per-bin sums of agg over binnable rows must add up to the direct
	// total sum (no NaNs in this relation), and every bin label must carry
	// the released edges.
	r := quantRel(t)
	v, meta := privatized(t, r, 13, 0.2, 0)
	est := &Estimator{Meta: meta, Confidence: 0.95}
	bins, err := est.GroupBinSums(v, "value", "value")
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, b := range bins {
		total += b.Est.Value
		if b.Label == "" || b.Hi <= b.Lo {
			t.Errorf("bin %+v: malformed range or label", b)
		}
	}
	col, err := v.Numeric("value")
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, x := range col {
		want += x
	}
	if diff := total - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("per-bin sums add to %v, column total is %v", total, want)
	}
}
