package relation

import (
	"errors"
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
		map[string][]float64{"temp": {1, 2, 3, 4, 5, 6}}, nil,
		map[string]*DiscreteIndex{"city": ix})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// stringsBuilt reports whether a discrete column holds its strings.
func stringsBuilt(r *Relation, name string) bool {
	r.dmu.Lock()
	defer r.dmu.Unlock()
	return r.discrete[name].vals != nil
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
	t.Run("coded", func(t *testing.T) {
		r := codedRel(t)
		checkDomainReads(t, r)
		if stringsBuilt(r, "city") {
			t.Error("Domain, DomainSize or ValueCounts built a coded column's strings")
		}
	})
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
	if _, err := r.DiscreteIndex("city"); err != nil {
		t.Fatal(err)
	}
	if err := r.SetDiscrete("city", 0, "Boston"); err != nil {
		t.Fatal(err)
	}
	d, err := r.Domain("city")
	if err != nil {
		t.Fatal(err)
	}
	if !contains(d, "Boston") {
		t.Errorf("SetDiscrete not reflected in Domain: %v", d)
	}

	if err := r.MapDiscrete("city", func(v string) string { return v + "!" }); err != nil {
		t.Fatal(err)
	}
	d, err = r.Domain("city")
	if err != nil {
		t.Fatal(err)
	}
	if !contains(d, "Boston!") || contains(d, "Boston") {
		t.Errorf("MapDiscrete not reflected in Domain: %v", d)
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

func TestRawWriteNeedsExplicitInvalidate(t *testing.T) {
	r := indexRel(t)
	ix, err := r.DiscreteIndex("city")
	if err != nil {
		t.Fatal(err)
	}
	col := r.MustDiscrete("city")
	col[0] = "Chicago" // backing-slice write bypasses the cache
	if !debugAssertEnabled {
		// In normal builds the stale entry is served as-is; under pcdebug the
		// same read panics (covered by TestDebugAssertStaleIndex).
		stale, err := r.DiscreteIndex("city")
		if err != nil {
			t.Fatal(err)
		}
		if stale != ix {
			t.Fatal("raw writes are not expected to refresh the cache by themselves")
		}
	}
	r.InvalidateIndex("city")
	fresh, err := r.DiscreteIndex("city")
	if err != nil {
		t.Fatal(err)
	}
	if fresh == ix {
		t.Error("InvalidateIndex should force a rebuild")
	}
	if got := fresh.Domain[fresh.Codes[0]]; got != "Chicago" {
		t.Errorf("rebuilt index decodes row 0 to %q", got)
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
		t.Error("a clone's identical column should reuse the immutable cached index")
	}
	// Invalidating the clone must not disturb the original's cache.
	c.InvalidateIndex("city")
	still, err := r.DiscreteIndex("city")
	if err != nil {
		t.Fatal(err)
	}
	if still != orig {
		t.Error("invalidating a clone's entry must not evict the original's")
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
	if err := r.CheckIndex("city"); err != nil {
		t.Errorf("CheckIndex on a coded column: %v", err)
	}
	if stringsBuilt(r, "city") {
		t.Fatal("DiscreteIndex or CheckIndex built a coded column's strings")
	}
	// A clone keeps the column as codes, sharing the immutable index.
	c := r.Clone()
	if cix, _ := c.DiscreteIndex("city"); cix != ix || stringsBuilt(c, "city") {
		t.Error("Clone should share the index and leave the strings unbuilt")
	}
}

func TestCodedColumnReadsMatchStrings(t *testing.T) {
	want := indexRel(t)
	r := codedRel(t)
	ix, _ := r.DiscreteIndex("city")
	if !r.Equal(want) || !want.Equal(codedRel(t)) {
		t.Fatal("a coded column should equal the same column held as strings")
	}
	if got := r.MustDiscrete("city"); !slices.Equal(got, want.MustDiscrete("city")) {
		t.Fatalf("Discrete = %v", got)
	}
	if again, _ := r.DiscreteIndex("city"); again != ix {
		t.Error("building the strings must keep the stored index")
	}
	if err := r.CheckIndex("city"); err != nil {
		t.Errorf("CheckIndex once both forms exist: %v", err)
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

	c := codedRel(t).Clone()
	if err := c.SetDiscrete("city", 0, "Oslo"); err != nil {
		t.Fatal(err)
	}
	if !codedRel(t).Equal(want) || c.Equal(want) {
		t.Error("a write to a coded clone should change the clone only")
	}
}

func TestCodedColumnWrites(t *testing.T) {
	r := codedRel(t)
	if err := r.SetDiscrete("city", 3, "Oslo"); err != nil {
		t.Fatal(err)
	}
	if d, _ := r.Domain("city"); !slices.Equal(d, []string{"LA", "Oslo", "SF"}) {
		t.Errorf("after SetDiscrete, domain = %v", d)
	}

	r = codedRel(t)
	if err := r.MapDiscrete("city", strings.ToLower); err != nil {
		t.Fatal(err)
	}
	if got := r.MustDiscrete("city"); !slices.Equal(got, []string{"sf", "la", "sf", "nyc", "la", "sf"}) {
		t.Errorf("after MapDiscrete = %v", got)
	}
	if c, _ := r.ValueCounts("city"); c["sf"] != 3 || c["SF"] != 0 {
		t.Errorf("after MapDiscrete, counts = %v", c)
	}

	// Dropping the only form the column has keeps its values: the strings
	// are built before the index goes.
	r = codedRel(t)
	r.InvalidateIndex("city")
	if !r.Equal(indexRel(t)) {
		t.Fatal("InvalidateIndex lost a coded column's values")
	}

	// A raw write after the strings exist is caught like any other.
	r = codedRel(t)
	r.MustDiscrete("city")[0] = "Oslo"
	var stale *StaleIndexError
	if err := r.CheckIndex("city"); !errors.As(err, &stale) {
		t.Fatalf("CheckIndex after a raw write = %v, want *StaleIndexError", err)
	}
	r.InvalidateIndex("city")
	if c, _ := r.ValueCounts("city"); c["Oslo"] != 1 || c["SF"] != 2 {
		t.Errorf("after InvalidateIndex, counts = %v", c)
	}
}
