package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"testing"
	"time"

	"privateclean/internal/csvio"
	"privateclean/internal/privacy"
)

// inputDigest hashes every generated input of a small run: the dataset CSV,
// both query streams' request bodies, and the encoded report batches.
func inputDigest(t *testing.T, seed int64) [32]byte {
	t.Helper()
	rel, err := dataset(seed, 4096)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf bytes.Buffer
	if err := csvio.Write(&buf, rel); err != nil {
		t.Fatal(err)
	}
	h.Write(buf.Bytes())
	sections, instructors, err := domainsByRank(rel)
	if err != nil {
		t.Fatal(err)
	}
	for _, stats := range []bool{false, true} {
		cycle := residentCycle
		if stats {
			cycle = statsCycle
		}
		qs, prefix, err := queryStream(seed, 300, cycle, sections, instructors, stats)
		if err != nil {
			t.Fatal(err)
		}
		if len(qs) != prefix+300 {
			t.Fatalf("stream of %d queries, want prefix %d + 300", len(qs), prefix)
		}
		plan := newQueryPlan(qs, prefix)
		if got := len(plan.warmIDs()); got != warmDistinct {
			t.Fatalf("warm-up prefix holds %d distinct queries, want %d", got, warmDistinct)
		}
		w := newWork("/v1/query/batch", plan, plan.ids)
		for _, b := range w.bodies {
			h.Write(b)
		}
	}
	meta, err := privacy.ViewMetaFor(rel, releaseParams(rel.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := records(rel)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := reportBatches(seed, recs, meta, 20, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		h.Write(b.body)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestInputsDeterministicFromSeed(t *testing.T) {
	a, b := inputDigest(t, 7), inputDigest(t, 7)
	if a != b {
		t.Fatal("the same seed generated different inputs")
	}
	if c := inputDigest(t, 8); c == a {
		t.Fatal("different seeds generated identical inputs")
	}
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},   // rank 1.5 between 2 and 3
		{[]float64{4, 1, 3, 2}, 0.99, 3.97}, // rank 2.97 between 3 and 4
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 1, 4},
		{[]float64{10, 20, 30, 40, 50}, 0.9, 46}, // rank 3.6
		{[]float64{7}, 0.99, 7},
	} {
		if got := percentile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100] has children [10,30], [20,50] and [90,120]; the middle
	// child has a child [25,40]. The root's children cover [10,50] and, clipped
	// to the root, [90,100]: 50 of its 100.
	spans := []span{
		{Name: "root", Start: 0, End: 100},
		{Name: "a", Start: 10, End: 30, Parent: 1},
		{Name: "b", Start: 20, End: 50, Parent: 1},
		{Name: "c", Start: 90, End: 120, Parent: 1},
		{Name: "b.child", Start: 25, End: 40, Parent: 3},
		{Name: "a", Start: 200, End: 204},
	}
	want := map[string]layerTotal{
		"root":    {self: 50, calls: 1},
		"a":       {self: 24, calls: 2},
		"b":       {self: 15, calls: 1},
		"c":       {self: 30, calls: 1},
		"b.child": {self: 15, calls: 1},
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: self %v over %d calls, want %v over %d", name, got[name].self, got[name].calls, w.self, w.calls)
		}
	}
	if m := want["a"].mean(time.Nanosecond); m != 12 {
		t.Errorf("mean self time of a = %v ns, want 12", m)
	}
}
