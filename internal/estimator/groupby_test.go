package estimator

import (
	"math"
	"testing"
)

func TestGroupSums(t *testing.T) {
	r := skewedRel(t)
	v, meta := privatized(t, r, 71, 0.15, 2)
	est := &Estimator{Meta: meta}
	groups, err := est.GroupSums(v, "category", "value")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) == 0 {
		t.Fatal("no groups")
	}
	// The corrected per-group sums roughly partition the column total.
	truthTotal := 500*10.0 + 300*20 + 150*30 + 40*40 + 10*50
	total := 0.0
	for _, e := range groups {
		total += e.Value
	}
	if math.Abs(total-truthTotal)/truthTotal > 0.1 {
		t.Fatalf("group sums total = %v, want ~%v", total, truthTotal)
	}
	// The dominant group's estimate is near its truth.
	if a, ok := groups["a"]; ok {
		if math.Abs(a.Value-5000)/5000 > 0.25 {
			t.Fatalf("group a sum = %v, want ~5000", a.Value)
		}
	} else {
		t.Fatal("missing group a")
	}
	if _, err := est.GroupSums(v, "nope", "value"); err == nil {
		t.Fatal("want error for unknown group attribute")
	}
	if _, err := est.GroupSums(v, "category", "nope"); err == nil {
		t.Fatal("want error for unknown aggregate")
	}
}

func TestGroupAvgs(t *testing.T) {
	r := skewedRel(t)
	v, meta := privatized(t, r, 73, 0.15, 1)
	est := &Estimator{Meta: meta}
	groups, err := est.GroupAvgs(v, "category", "value")
	if err != nil {
		t.Fatal(err)
	}
	// Each group's base value is 10*(rank+1); the dominant groups should
	// estimate close.
	if a, ok := groups["a"]; ok && math.Abs(a.Value-10) > 4 {
		t.Fatalf("group a avg = %v, want ~10", a.Value)
	}
	if b, ok := groups["b"]; ok && math.Abs(b.Value-20) > 6 {
		t.Fatalf("group b avg = %v, want ~20", b.Value)
	}
	if _, err := est.GroupAvgs(v, "nope", "value"); err == nil {
		t.Fatal("want error for unknown group attribute")
	}
}

func TestDirectGroupSumsAndAvgs(t *testing.T) {
	r := skewedRel(t)
	d := new(Estimator).Nominal()
	sums, err := d.GroupSums(r, "category", "value")
	if err != nil || sums["a"].Value != 5000 || sums["e"].Value != 500 {
		t.Fatalf("sums = %v, %v", sums, err)
	}
	avgs, err := d.GroupAvgs(r, "category", "value")
	if err != nil || avgs["a"].Value != 10 || avgs["e"].Value != 50 {
		t.Fatalf("avgs = %v, %v", avgs, err)
	}
	if _, err := d.GroupSums(r, "nope", "value"); err == nil {
		t.Fatal("want error")
	}
	if _, err := d.GroupSums(r, "category", "nope"); err == nil {
		t.Fatal("want error")
	}
	if _, err := d.GroupAvgs(r, "nope", "value"); err == nil {
		t.Fatal("want error")
	}
	if _, err := d.GroupAvgs(r, "category", "nope"); err == nil {
		t.Fatal("want error")
	}
}
