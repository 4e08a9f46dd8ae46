package estimator_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"privateclean/internal/csvio"
	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
)

// TestMappedMechanismEstimatesMatchReleased: views and metadata released
// under k-RR and binary RR when each had its own channel constants
// (testdata/mapped, with the estimates that code computed over them in
// *.want.json) still estimate the same after both names map onto GRR's
// channel at GRRP's p — every shape, to 1e-12 relative (absolute below
// magnitude 1).
func TestMappedMechanismEstimatesMatchReleased(t *testing.T) {
	for _, mech := range []string{privacy.MechKRR, privacy.MechRRBin} {
		base := filepath.Join("testdata", "mapped", mech)
		var meta privacy.ViewMeta
		readJSON(t, base+".meta.json", &meta)
		if err := meta.Validate(); err != nil {
			t.Fatal(err)
		}
		var want map[string][2]float64
		readJSON(t, base+".want.json", &want)
		view, _, err := csvio.ReadFileWithReport(base+".view.csv", csvio.Options{ForceKinds: map[string]relation.Kind{"category": relation.Discrete}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := mechQueries(&meta, view)
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d estimates, want %d", mech, len(got), len(want))
		}
		for name, w := range want {
			g, ok := got[name]
			if !ok {
				t.Fatalf("%s: no estimate %q", mech, name)
			}
			for i := range w {
				if math.Abs(g[i]-w[i]) > 1e-12*math.Max(1, math.Abs(w[i])) {
					t.Errorf("%s %s: (value, ci) = %v, released code gave %v", mech, name, g, w)
				}
			}
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// mechQueries runs the single-attribute estimate shapes — count, sum and
// avg under Eq, a count under In, GROUP BY counts, and count/sum/avg from
// statistics — over a view, keyed by a readable name.
func mechQueries(meta *privacy.ViewMeta, view *relation.Relation) (map[string][2]float64, error) {
	e := &estimator.Estimator{Meta: meta}
	st, err := estimator.CollectStatisticsWith(relation.NewSliceIterator(view, 64), estimator.CollectOpts{})
	if err != nil {
		return nil, err
	}
	out := map[string][2]float64{}
	put := func(name string, est estimator.Estimate, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out[name] = [2]float64{est.Value, est.CI}
		return nil
	}
	domain := meta.Discrete["category"].Domain
	for _, v := range domain {
		pred := estimator.Eq("category", v)
		est, err := e.Count(view, pred)
		if err := put("count/"+v, est, err); err != nil {
			return nil, err
		}
		est, err = e.Sum(view, "value", pred)
		if err := put("sum/"+v, est, err); err != nil {
			return nil, err
		}
		est, err = e.Avg(view, "value", pred)
		if err := put("avg/"+v, est, err); err != nil {
			return nil, err
		}
		est, err = e.CountStats(st, pred)
		if err := put("stats-count/"+v, est, err); err != nil {
			return nil, err
		}
		est, err = e.SumStats(st, "value", pred)
		if err := put("stats-sum/"+v, est, err); err != nil {
			return nil, err
		}
		est, err = e.AvgStats(st, "value", pred)
		if err := put("stats-avg/"+v, est, err); err != nil {
			return nil, err
		}
	}
	est, err := e.Count(view, estimator.In("category", domain[0], domain[len(domain)-1]))
	if err := put("count-in", est, err); err != nil {
		return nil, err
	}
	groups, err := e.GroupCounts(view, "category")
	if err != nil {
		return nil, err
	}
	for v, est := range groups {
		out["group-count/"+v] = [2]float64{est.Value, est.CI}
	}
	return out, nil
}
