package estimator

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"privateclean/internal/privacy"
)

// searchBin is the definition a placement must meet, kept here apart from
// the program: the bin of x under edges (len >= 2, ascending) by binary
// search, with left-closed bins, the last bin closed on the right and
// values outside the edges clamped into the end bins.
func searchBin(edges []float64, x float64) int {
	i := sort.SearchFloat64s(edges, x)
	k := i - 1
	if i < len(edges) && edges[i] == x {
		k = i
	}
	return max(0, min(k, len(edges)-2))
}

// TestPlacementMatchesSearch: on released uniform layouts of random
// Lo/Delta/B and 1–4096 bins (the degenerate unit span included) and on
// random strictly ascending non-uniform edges, a placement puts every edge,
// both float neighbours of each, ±Inf, ±MaxFloat64 and values up to 20%
// outside the span in the bin searchBin gives.
func TestPlacementMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	check := func(edges []float64) {
		t.Helper()
		p := newPlacement(edges)
		span := edges[len(edges)-1] - edges[0]
		xs := []float64{math.Inf(-1), math.Inf(1), -math.MaxFloat64, math.MaxFloat64, 0, math.Copysign(0, -1)}
		for _, e := range edges {
			xs = append(xs, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
		}
		for i := 0; i < 200; i++ {
			xs = append(xs, edges[0]+(rng.Float64()*1.4-0.2)*span)
		}
		for _, x := range xs {
			if got, want := p.bin(x), searchBin(edges, x); got != want {
				t.Fatalf("%d bins over [%v, %v]: x = %v placed in bin %d = [%v, %v], search gives bin %d = [%v, %v]",
					len(edges)-1, edges[0], edges[len(edges)-1], x, got, edges[got], edges[got+1], want, edges[want], edges[want+1])
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		nm := privacy.NumericMeta{
			Lo:    (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(13)-6)),
			Delta: rng.Float64() * math.Pow(10, float64(rng.Intn(13)-6)),
			B:     rng.Float64() * math.Pow(10, float64(rng.Intn(9)-4)),
			Bins:  1 + rng.Intn(4096),
		}
		switch trial % 5 {
		case 0: // degenerate span: hi = lo + 1
			nm.Delta, nm.B = 0, 0
		case 1:
			nm.Bins = 1 + rng.Intn(8)
		}
		edges := nm.BinEdges()
		if newPlacement(edges).scale == 0 {
			t.Fatalf("released layout %+v gets no arithmetic guess", nm)
		}
		check(edges)
	}
	for trial := 0; trial < 300; trial++ {
		edges := make([]float64, 2+rng.Intn(200))
		edges[0] = (rng.Float64() - 0.5) * 1e3
		for i := 1; i < len(edges); i++ {
			edges[i] = edges[i-1] + rng.ExpFloat64()*math.Pow(10, float64(rng.Intn(7)-3))
			if !(edges[i] > edges[i-1]) {
				edges[i] = math.Nextafter(edges[i-1], math.Inf(1))
			}
		}
		check(edges)
	}
}
