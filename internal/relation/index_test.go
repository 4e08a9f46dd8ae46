package relation

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

func indexRel(t *testing.T) *Relation {
	t.Helper()
	schema := MustSchema(
		Column{Name: "city", Kind: Discrete},
		Column{Name: "temp", Kind: Numeric},
	)
	r, err := FromColumns(schema,
		map[string][]float64{"temp": {1, 2, 3, 4, 5, 6}},
		map[string][]string{"city": {"SF", "LA", "SF", "NYC", "LA", "SF"}})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// codedRel holds indexRel's data with "city" stored only as codes, the way
// a loaded .pcol view holds it.
func codedRel(t *testing.T) *Relation {
	t.Helper()
	schema := MustSchema(
		Column{Name: "city", Kind: Discrete},
		Column{Name: "temp", Kind: Numeric},
	)
	ix := &DiscreteIndex{Domain: []string{"LA", "NYC", "SF"}, Codes: []uint32{2, 0, 2, 1, 0, 2}}
	r, err := FromBacking(schema, 6,
		map[string][]float64{"temp": {1, 2, 3, 4, 5, 6}},
		map[string]*DiscreteIndex{"city": ix})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDiscreteIndexRoundTrip(t *testing.T) {
	r := indexRel(t)
	ix, err := r.DiscreteIndex("city")
	if err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(ix.Domain) {
		t.Errorf("domain not sorted: %v", ix.Domain)
	}
	if ix.N() != 3 {
		t.Errorf("N() = %d, want 3", ix.N())
	}
	col := r.MustDiscrete("city")
	if len(ix.Codes) != len(col) {
		t.Fatalf("codes length %d, rows %d", len(ix.Codes), len(col))
	}
	for i, c := range ix.Codes {
		if ix.Domain[c] != col[i] {
			t.Errorf("row %d decodes to %q, want %q", i, ix.Domain[c], col[i])
		}
	}
	if _, err := r.DiscreteIndex("temp"); err == nil {
		t.Error("want error indexing a numeric column")
	}
	if _, err := r.DiscreteIndex("nope"); err == nil {
		t.Error("want error indexing an unknown column")
	}
}

func TestDiscreteIndexCached(t *testing.T) {
	r := indexRel(t)
	a, err := r.DiscreteIndex("city")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.DiscreteIndex("city")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("repeated DiscreteIndex calls should return the cached pointer")
	}
}

func TestDomainRoutesThroughIndexAndCopies(t *testing.T) {
	t.Run("strings", func(t *testing.T) { checkDomainReads(t, indexRel(t)) })
	t.Run("coded", func(t *testing.T) { checkDomainReads(t, codedRel(t)) })
}

func checkDomainReads(t *testing.T, r *Relation) {
	t.Helper()
	d1, err := r.Domain("city")
	if err != nil {
		t.Fatal(err)
	}
	d1[0] = "CORRUPTED" // callers own the returned slice
	d2, err := r.Domain("city")
	if err != nil {
		t.Fatal(err)
	}
	if d2[0] == "CORRUPTED" {
		t.Error("Domain must return a copy, not the cached slice")
	}
	n, err := r.DomainSize("city")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("DomainSize = %d, want 3", n)
	}
	counts, err := r.ValueCounts("city")
	if err != nil {
		t.Fatal(err)
	}
	if counts["SF"] != 3 || counts["LA"] != 2 || counts["NYC"] != 1 {
		t.Errorf("ValueCounts = %v", counts)
	}
}

func TestWritesInvalidateIndex(t *testing.T) {
	r := indexRel(t)
	before, err := r.DiscreteIndex("city")
	if err != nil {
		t.Fatal(err)
	}
	vals := r.MustDiscrete("city")
	vals[0] = "Boston"
	if err := r.SetDiscrete("city", vals); err != nil {
		t.Fatal(err)
	}
	d, err := r.Domain("city")
	if err != nil {
		t.Fatal(err)
	}
	if !contains(d, "Boston") {
		t.Errorf("SetDiscrete not reflected in Domain: %v", d)
	}
	if contains(before.Domain, "Boston") {
		t.Error("a write changed the index read before it")
	}

	if err := r.MapDomain("city", func(v string) string { return v + "!" }); err != nil {
		t.Fatal(err)
	}
	d, err = r.Domain("city")
	if err != nil {
		t.Fatal(err)
	}
	if !contains(d, "Boston!") || contains(d, "Boston") {
		t.Errorf("MapDomain not reflected in Domain: %v", d)
	}

	if err := r.AddDiscreteColumn("tier", []string{"a", "b", "a", "b", "a", "b"}); err != nil {
		t.Fatal(err)
	}
	d, err = r.Domain("tier")
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 {
		t.Errorf("new column domain = %v", d)
	}
}

// Discrete hands out a copy: writing it leaves the relation and its index
// as they were.
func TestDiscreteReturnsCopy(t *testing.T) {
	r := indexRel(t)
	ix, err := r.DiscreteIndex("city")
	if err != nil {
		t.Fatal(err)
	}
	r.MustDiscrete("city")[0] = "Chicago"
	if got := r.MustDiscrete("city")[0]; got != "SF" {
		t.Fatalf("a write to Discrete's slice reached the relation: row 0 = %q", got)
	}
	if again, _ := r.DiscreteIndex("city"); again != ix || contains(ix.Domain, "Chicago") {
		t.Error("a write to Discrete's slice changed the index")
	}
}

func TestCloneSharesIndexUntilInvalidated(t *testing.T) {
	r := indexRel(t)
	orig, err := r.DiscreteIndex("city")
	if err != nil {
		t.Fatal(err)
	}
	c := r.Clone()
	shared, err := c.DiscreteIndex("city")
	if err != nil {
		t.Fatal(err)
	}
	if shared != orig {
		t.Error("a clone's identical column should reuse the immutable index")
	}
	// A write to the clone installs its own index, leaving the original's.
	if err := c.MapDomain("city", strings.ToLower); err != nil {
		t.Fatal(err)
	}
	if mine, _ := c.DiscreteIndex("city"); mine == orig {
		t.Error("a write to the clone kept the shared index")
	}
	still, err := r.DiscreteIndex("city")
	if err != nil {
		t.Fatal(err)
	}
	if still != orig || !slices.Equal(orig.Domain, []string{"LA", "NYC", "SF"}) {
		t.Error("a write to a clone must not touch the original's index")
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestCodedColumnIndexReadsBuildNoStrings(t *testing.T) {
	r := codedRel(t)
	ix, err := r.DiscreteIndex("city")
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint32{2, 1, 3}; !slices.Equal(ix.Counts, want) {
		t.Errorf("Counts = %v, want %v", ix.Counts, want)
	}
	// A canonical coded column is adopted as given, codes included.
	if want := []uint32{2, 0, 2, 1, 0, 2}; !slices.Equal(ix.Codes, want) {
		t.Errorf("Codes = %v, want %v", ix.Codes, want)
	}
	// A clone shares the immutable index.
	c := r.Clone()
	if cix, _ := c.DiscreteIndex("city"); cix != ix {
		t.Error("Clone should share the index")
	}
}

func TestCodedColumnReadsMatchStrings(t *testing.T) {
	want := indexRel(t)
	r := codedRel(t)
	ix, _ := r.DiscreteIndex("city")
	if !r.Equal(want) || !want.Equal(codedRel(t)) {
		t.Fatal("a coded column should equal the same column given as strings")
	}
	if got := r.MustDiscrete("city"); !slices.Equal(got, want.MustDiscrete("city")) {
		t.Fatalf("Discrete = %v", got)
	}
	if again, _ := r.DiscreteIndex("city"); again != ix {
		t.Error("reading the strings must keep the stored index")
	}

	row, err := codedRel(t).Row(3)
	if err != nil || row.Discrete["city"] != "NYC" || row.Numeric["temp"] != 4 {
		t.Errorf("Row(3) = %+v, %v", row, err)
	}
	w, err := codedRel(t).Window(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.MustDiscrete("city"); !slices.Equal(got, []string{"LA", "SF", "NYC"}) {
		t.Errorf("Window(1,4) = %v", got)
	}
	if d, _ := w.Domain("city"); !slices.Equal(d, []string{"LA", "NYC", "SF"}) {
		t.Errorf("window domain = %v", d)
	}
	w, _ = codedRel(t).Window(0, 3)
	if d, _ := w.Domain("city"); !slices.Equal(d, []string{"LA", "SF"}) {
		t.Errorf("window domain = %v, want only the values its rows hold", d)
	}

	c := codedRel(t).Clone()
	vals := c.MustDiscrete("city")
	vals[0] = "Oslo"
	if err := c.SetDiscrete("city", vals); err != nil {
		t.Fatal(err)
	}
	if !codedRel(t).Equal(want) || c.Equal(want) {
		t.Error("a write to a coded clone should change the clone only")
	}
}

func TestCodedColumnWrites(t *testing.T) {
	r := codedRel(t)
	vals := r.MustDiscrete("city")
	vals[3] = "Oslo"
	if err := r.SetDiscrete("city", vals); err != nil {
		t.Fatal(err)
	}
	if d, _ := r.Domain("city"); !slices.Equal(d, []string{"LA", "Oslo", "SF"}) {
		t.Errorf("after SetDiscrete, domain = %v", d)
	}

	r = codedRel(t)
	if err := r.MapDomain("city", strings.ToLower); err != nil {
		t.Fatal(err)
	}
	if got := r.MustDiscrete("city"); !slices.Equal(got, []string{"sf", "la", "sf", "nyc", "la", "sf"}) {
		t.Errorf("after MapDomain = %v", got)
	}
	if c, _ := r.ValueCounts("city"); c["sf"] != 3 || c["SF"] != 0 {
		t.Errorf("after MapDomain, counts = %v", c)
	}

	// A map that merges values merges their codes and counts.
	r = codedRel(t)
	if err := r.MapDomain("city", func(v string) string {
		if v == "LA" {
			return "SF"
		}
		return v
	}); err != nil {
		t.Fatal(err)
	}
	ix, _ := r.DiscreteIndex("city")
	if !slices.Equal(ix.Domain, []string{"NYC", "SF"}) || !slices.Equal(ix.Counts, []uint32{1, 5}) {
		t.Errorf("after a merging MapDomain, index = %+v", ix)
	}
}

// TestMapDomainMatchesRowRewrite is the differential test of the dictionary
// rewrite: on random columns and random maps f that both merge existing
// values and introduce new ones, MapDomain's index must equal the encoding
// of the column rewritten row by row, and Domain and ValueCounts must agree
// with the rewritten rows.
func TestMapDomainMatchesRowRewrite(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	schema := MustSchema(Column{Name: "d", Kind: Discrete})
	for trial := 0; trial < 300; trial++ {
		rows, width := rng.Intn(60), 1+rng.Intn(12)
		vals := make([]string, rows)
		for i := range vals {
			vals[i] = fmt.Sprintf("v%02d", rng.Intn(width))
		}
		// f sends each value to an existing value, a new one, or itself.
		image := make(map[string]string)
		for k := 0; k < width; k++ {
			v := fmt.Sprintf("v%02d", k)
			switch rng.Intn(3) {
			case 0:
				image[v] = fmt.Sprintf("v%02d", rng.Intn(width))
			case 1:
				image[v] = fmt.Sprintf("n%02d", rng.Intn(width))
			default:
				image[v] = v
			}
		}
		f := func(v string) string { return image[v] }
		r, err := FromColumns(schema, nil, map[string][]string{"d": vals})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.MapDomain("d", f); err != nil {
			t.Fatal(err)
		}
		rewritten := make([]string, rows)
		counts := make(map[string]int)
		for i, v := range vals {
			rewritten[i] = f(v)
			counts[f(v)]++
		}
		// The canonical encoding of the rewritten rows, built here without
		// the package's encoder.
		want := &DiscreteIndex{Codes: make([]uint32, rows)}
		for v := range counts {
			want.Domain = append(want.Domain, v)
		}
		slices.Sort(want.Domain)
		for _, v := range want.Domain {
			want.Counts = append(want.Counts, uint32(counts[v]))
		}
		for i, v := range rewritten {
			c, _ := slices.BinarySearch(want.Domain, v)
			want.Codes[i] = uint32(c)
		}
		got, _ := r.DiscreteIndex("d")
		if !slices.Equal(got.Domain, want.Domain) || !slices.Equal(got.Codes, want.Codes) || !slices.Equal(got.Counts, want.Counts) {
			t.Fatalf("trial %d: MapDomain index %+v, row rewrite encodes to %+v", trial, got, want)
		}
		dom, _ := r.Domain("d")
		vc, _ := r.ValueCounts("d")
		if len(dom) != len(counts) || !slices.IsSorted(dom) || !maps.Equal(vc, counts) {
			t.Fatalf("trial %d: Domain %v, ValueCounts %v, rewritten rows hold %v", trial, dom, vc, counts)
		}
	}
}
