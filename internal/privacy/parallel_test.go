package privacy

import (
	"math"
	"math/rand"
	"testing"

	"privateclean/internal/relation"
)

func parallelRel(t *testing.T, rows int) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	schema := relation.MustSchema(
		relation.Column{Name: "category", Kind: relation.Discrete},
		relation.Column{Name: "value", Kind: relation.Numeric},
	)
	cats := make([]string, rows)
	vals := make([]float64, rows)
	letters := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := range cats {
		cats[i] = letters[rng.Intn(len(letters))]
		vals[i] = rng.Float64() * 100
	}
	r, err := relation.FromColumns(schema,
		map[string][]float64{"value": vals},
		map[string][]string{"category": cats})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func sameView(t *testing.T, a, b *relation.Relation) {
	t.Helper()
	ca, cb := a.MustDiscrete("category"), b.MustDiscrete("category")
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("discrete row %d: %q vs %q", i, ca[i], cb[i])
		}
	}
	va, err := a.Numeric("value")
	if err != nil {
		t.Fatal(err)
	}
	vb, err := b.Numeric("value")
	if err != nil {
		t.Fatal(err)
	}
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("numeric row %d: %v vs %v", i, va[i], vb[i])
		}
	}
}

// TestPrivatizeParallelWorkerCountInvariant: the released view is a pure
// function of (seed, relation, params); worker count must not appear in the
// bytes. Rows span several shards so the pool actually fans out.
func TestPrivatizeParallelWorkerCountInvariant(t *testing.T) {
	r := parallelRel(t, 3*ShardRows+57)
	params := Uniform(r.Schema(), 0.2, 5)
	base, baseMeta, err := PrivatizeParallel(11, r, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		v, meta, err := PrivatizeParallel(11, r, params, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameView(t, base, v)
		if meta.TotalEpsilon() != baseMeta.TotalEpsilon() {
			t.Errorf("workers=%d meta epsilon %v, want %v", workers, meta.TotalEpsilon(), baseMeta.TotalEpsilon())
		}
	}
	// A different seed must produce a different view.
	other, _, err := PrivatizeParallel(12, r, params, 2)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	a, b := base.MustDiscrete("category"), other.MustDiscrete("category")
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical discrete columns")
	}
}

// TestPrivatizeParallelFlipRate: the skip-sampled resampling must still hit
// p within Monte Carlo tolerance, across shard boundaries.
func TestPrivatizeParallelFlipRate(t *testing.T) {
	rows := 2*ShardRows + 100
	r := parallelRel(t, rows)
	const p = 0.3
	params := Uniform(r.Schema(), p, 1)
	v, _, err := PrivatizeParallel(5, r, params, 4)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := r.MustDiscrete("category"), v.MustDiscrete("category")
	changed := 0
	for i := range src {
		if src[i] != dst[i] {
			changed++
		}
	}
	// A resample keeps the old value with probability 1/|domain| = 1/8.
	want := p * (1 - 1.0/8)
	got := float64(changed) / float64(rows)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("observed change rate %v, want about %v", got, want)
	}
}

// TestPrivatizeParallelSmall covers relations at and below one shard,
// including the empty relation.
func TestPrivatizeParallelSmall(t *testing.T) {
	for _, rows := range []int{0, 1, ShardRows} {
		r := parallelRel(t, rows)
		params := Uniform(r.Schema(), 0.5, 2)
		v, meta, err := PrivatizeParallel(3, r, params, 8)
		if err != nil {
			t.Fatalf("rows=%d: %v", rows, err)
		}
		if v.NumRows() != rows || meta.Rows != rows {
			t.Errorf("rows=%d: view has %d rows, meta %d", rows, v.NumRows(), meta.Rows)
		}
	}
}

// TestPrivatizeParallelViewDomainFresh: the returned view must not carry the
// source's cached domain — GRR introduces values into rows a clone's cache
// would hide.
func TestPrivatizeParallelViewDomainFresh(t *testing.T) {
	r := parallelRel(t, ShardRows)
	// Prime the source cache so the clone starts from a shared entry.
	if _, err := r.DiscreteIndex("category"); err != nil {
		t.Fatal(err)
	}
	v, _, err := PrivatizeParallel(21, r, Uniform(r.Schema(), 0.9, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := v.ValueCounts("category")
	if err != nil {
		t.Fatal(err)
	}
	col := v.MustDiscrete("category")
	direct := map[string]int{}
	for _, x := range col {
		direct[x]++
	}
	if len(counts) != len(direct) {
		t.Fatalf("ValueCounts sees %d values, column has %d", len(counts), len(direct))
	}
	for k, n := range direct {
		if counts[k] != n {
			t.Errorf("count[%q] = %d, want %d", k, counts[k], n)
		}
	}
}

// panicRand fails the test if any draw is consumed.
type panicRand struct{ t *testing.T }

func (pr panicRand) Float64() float64 { pr.t.Fatal("unexpected Float64 draw"); return 0 }
func (pr panicRand) Intn(n int) int   { pr.t.Fatal("unexpected Intn draw"); return 0 }

// intnOnlyRand allows Intn but fails on Float64, for the p == 1 fast path.
type intnOnlyRand struct {
	t   *testing.T
	rng *rand.Rand
}

func (ir intnOnlyRand) Float64() float64 { ir.t.Fatal("p=1 must not draw Float64"); return 0 }
func (ir intnOnlyRand) Intn(n int) int   { return ir.rng.Intn(n) }

func TestRandomizedResponseEdgeProbabilities(t *testing.T) {
	domain := []string{"a", "b", "c"}
	col := []string{"a", "c", "b", "a"}

	// p = 0: pure copy, zero draws.
	keep := append([]string(nil), col...)
	if err := RandomizedResponseInPlace(panicRand{t}, keep, domain, 0); err != nil {
		t.Fatal(err)
	}
	for i := range keep {
		if keep[i] != col[i] {
			t.Errorf("p=0 changed row %d", i)
		}
	}

	// p = 1: every cell resampled with exactly one Intn and no Float64.
	all := append([]string(nil), col...)
	if err := RandomizedResponseInPlace(intnOnlyRand{t, rand.New(rand.NewSource(1))}, all, domain, 1); err != nil {
		t.Fatal(err)
	}
	for i, v := range all {
		if v != "a" && v != "b" && v != "c" {
			t.Errorf("p=1 row %d outside domain: %q", i, v)
		}
	}
}
