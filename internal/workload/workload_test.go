package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"privateclean/internal/relation"
	"privateclean/internal/textutil"
)

func TestSyntheticDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r, err := Synthetic(rng, SyntheticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 1000 {
		t.Fatalf("rows = %d", r.NumRows())
	}
	n, err := r.DomainSize("category")
	if err != nil || n != 50 {
		t.Fatalf("domain size = %d (want exactly N), %v", n, err)
	}
	vals := r.MustNumeric("value")
	for _, v := range vals {
		if v < 0 || v > 100 {
			t.Fatalf("value %v out of [0,100]", v)
		}
	}
}

func TestSyntheticSkewShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r, err := Synthetic(rng, SyntheticConfig{S: 5000, N: 20, Z: 2})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := r.ValueCounts("category")
	if err != nil {
		t.Fatal(err)
	}
	if counts[CategoryValue(0)] < counts[CategoryValue(10)] {
		t.Fatal("rank 0 should dominate under z=2")
	}
}

func TestSyntheticCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r, err := Synthetic(rng, SyntheticConfig{S: 4000, N: 10, Z: 0.001, Correlation: 1})
	if err != nil {
		t.Fatal(err)
	}
	cats := r.MustDiscrete("category")
	vals := r.MustNumeric("value")
	// With correlation 1, the value is a deterministic function of the
	// category rank.
	seen := map[string]float64{}
	for i := range cats {
		if prev, ok := seen[cats[i]]; ok && prev != vals[i] {
			t.Fatalf("correlation 1 should pin value per category: %v vs %v", prev, vals[i])
		}
		seen[cats[i]] = vals[i]
	}
}

func TestSyntheticBadConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := Synthetic(rng, SyntheticConfig{S: 10, N: 5, Z: -1}); err == nil {
		t.Fatal("want error for negative z")
	}
}

func TestRandomValueMapFractions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	domain := make([]string, 100)
	for i := range domain {
		domain[i] = CategoryValue(i)
	}
	m, err := RandomValueMap(rng, domain, 0.2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 50 {
		t.Fatalf("mapping size = %d, want 50", len(m))
	}
	inDomain := map[string]bool{}
	for _, v := range domain {
		inDomain[v] = true
	}
	merges, renames := 0, 0
	for src, dst := range m {
		if !inDomain[src] {
			t.Fatalf("source %q not in domain", src)
		}
		if inDomain[dst] {
			merges++
			if _, remapped := m[dst]; remapped {
				t.Fatalf("merge target %q is itself remapped", dst)
			}
		} else {
			renames++
			if !strings.HasSuffix(dst, "~renamed") {
				t.Fatalf("rename target %q", dst)
			}
		}
	}
	if merges != 20 || renames != 30 {
		t.Fatalf("merges=%d renames=%d", merges, renames)
	}
}

func TestRandomValueMapValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := RandomValueMap(rng, []string{"a"}, 0.8, 0.5); err == nil {
		t.Fatal("want error for fractions > 1")
	}
	if _, err := RandomValueMap(rng, []string{"a"}, -0.1, 0); err == nil {
		t.Fatal("want error for negative fraction")
	}
	m, err := RandomValueMap(rng, []string{"a", "b"}, 0, 0)
	if err != nil || len(m) != 0 {
		t.Fatalf("empty mapping = %v, %v", m, err)
	}
}

// Property: the mapping is single-step (no chains): no target is a source.
func TestRandomValueMapSingleStepProperty(t *testing.T) {
	f := func(seed int64, mRaw, rRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mf := float64(mRaw%50) / 100
		rf := float64(rRaw%50) / 100
		domain := make([]string, 40)
		for i := range domain {
			domain[i] = CategoryValue(i)
		}
		m, err := RandomValueMap(rng, domain, mf, rf)
		if err != nil {
			return false
		}
		for _, dst := range m {
			if _, isSource := m[dst]; isSource {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMultiAttr(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r, err := MultiAttr(rng, MultiAttrConfig{S: 2000, ErrorRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	insts := r.MustDiscrete("instructor")
	secs := r.MustDiscrete("section")
	nulls := 0
	for i := range insts {
		if insts[i] == relation.Null {
			nulls++
			continue
		}
		// Non-null rows satisfy the FD section -> instructor.
		secIdx := 0
		if _, err := sscanSection(secs[i], &secIdx); err != nil {
			t.Fatalf("bad section %q", secs[i])
		}
		if insts[i] != InstructorFor(secIdx, 10) {
			t.Fatalf("FD violated: %s -> %s", secs[i], insts[i])
		}
	}
	frac := float64(nulls) / 2000
	if math.Abs(frac-0.2) > 0.04 {
		t.Fatalf("null fraction = %v, want ~0.2", frac)
	}
	if _, err := MultiAttr(rng, MultiAttrConfig{Z: -2}); err == nil {
		t.Fatal("want error for bad z")
	}
}

func sscanSection(s string, out *int) (int, error) {
	var n int
	var err error
	if len(s) > 3 && s[:3] == "sec" {
		n, err = atoi(s[3:])
		*out = n
		return 1, err
	}
	return 0, errBadSection
}

var errBadSection = errString("bad section")

type errString string

func (e errString) Error() string { return string(e) }

func atoi(s string) (int, error) {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errBadSection
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

func TestCustomerAddressFDHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	r, err := CustomerAddress(rng, TPCDSConfig{Rows: 3000})
	if err != nil {
		t.Fatal(err)
	}
	cities := r.MustDiscrete("ca_city")
	counties := r.MustDiscrete("ca_county")
	states := r.MustDiscrete("ca_state")
	byKey := map[string]string{}
	for i := range cities {
		k := cities[i] + "|" + counties[i]
		if prev, ok := byKey[k]; ok && prev != states[i] {
			t.Fatalf("FD violated for %q: %s vs %s", k, prev, states[i])
		}
		byKey[k] = states[i]
	}
	// Country domain is the canonical set.
	dom, err := r.Domain("ca_country")
	if err != nil {
		t.Fatal(err)
	}
	if len(dom) > 8 {
		t.Fatalf("country domain = %v", dom)
	}
	// Canonical countries are pairwise far apart for the MD.
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if textutil.Levenshtein(CountryValue(i), CountryValue(j)) <= 2 {
				t.Fatalf("countries %q and %q too close", CountryValue(i), CountryValue(j))
			}
		}
	}
}

func TestCountryValueWraps(t *testing.T) {
	if CountryValue(0) != "United States" {
		t.Fatalf("dominant country = %q", CountryValue(0))
	}
	if CountryValue(12) == CountryValue(0) {
		t.Fatal("wrapped country should get a suffix")
	}
}

func TestCorruptStates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r, err := CustomerAddress(rng, TPCDSConfig{Rows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]string(nil), r.MustDiscrete("ca_state")...)
	if err := CorruptStates(rng, r, 200, 20); err != nil {
		t.Fatal(err)
	}
	after := r.MustDiscrete("ca_state")
	changed := 0
	for i := range before {
		if before[i] != after[i] {
			changed++
		}
	}
	if changed != 200 {
		t.Fatalf("changed %d rows, want 200", changed)
	}
	// Corrupting more rows than exist clamps.
	if err := CorruptStates(rng, r, 100000, 20); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptCountries(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	r, err := CustomerAddress(rng, TPCDSConfig{Rows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]string(nil), r.MustDiscrete("ca_country")...)
	if err := CorruptCountries(rng, r, 150); err != nil {
		t.Fatal(err)
	}
	after := r.MustDiscrete("ca_country")
	changed := 0
	for i := range before {
		if before[i] != after[i] {
			if len(after[i]) != len(before[i])+1 || !strings.HasPrefix(after[i], before[i]) {
				t.Fatalf("corruption should append one char: %q -> %q", before[i], after[i])
			}
			changed++
		}
	}
	if changed != 150 {
		t.Fatalf("changed %d rows, want 150", changed)
	}
}

func TestIntelWireless(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r, err := IntelWireless(rng, IntelWirelessConfig{Rows: 10000})
	if err != nil {
		t.Fatal(err)
	}
	valid := ValidSensorIDs(68)
	if len(valid) != 68 {
		t.Fatalf("valid ids = %d", len(valid))
	}
	ids := r.MustDiscrete("sensor_id")
	temps := r.MustNumeric("temp")
	failures := 0
	for i, id := range ids {
		if valid[id] {
			if temps[i] < 5 || temps[i] > 35 {
				t.Fatalf("healthy reading %v out of range", temps[i])
			}
		} else {
			failures++
			if temps[i] > 30 && temps[i] < 100 {
				t.Fatalf("failure reading %v not extreme", temps[i])
			}
		}
	}
	frac := float64(failures) / 10000
	if math.Abs(frac-0.08) > 0.02 {
		t.Fatalf("failure fraction = %v, want ~0.08", frac)
	}
}

func TestMCAFE(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	r, err := MCAFE(rng, MCAFEConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 406 {
		t.Fatalf("rows = %d", r.NumRows())
	}
	scores := r.MustNumeric("score")
	for _, s := range scores {
		if s < 1 || s > 10 {
			t.Fatalf("score %v out of [1,10]", s)
		}
	}
	counts, err := r.ValueCounts("country")
	if err != nil {
		t.Fatal(err)
	}
	if counts["US"] < 100 {
		t.Fatalf("US count = %d, should dominate", counts["US"])
	}
	n, _ := r.DomainSize("country")
	// High distinct fraction is the point of this dataset (paper: ~21%).
	if float64(n)/406 < 0.08 {
		t.Fatalf("distinct fraction = %v, too low", float64(n)/406)
	}
	// Europeans exist and IsEurope recognizes exactly C00..C29.
	if !IsEurope("C00") || !IsEurope("C29") || IsEurope("C30") || IsEurope("US") || IsEurope("") {
		t.Fatal("IsEurope misclassifies")
	}
	europeans := 0
	for c, k := range counts {
		if IsEurope(c) {
			europeans += k
		}
	}
	if europeans == 0 {
		t.Fatal("no European rows generated")
	}
}

func TestIntelWirelessEnvironmentalColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	r, err := IntelWireless(rng, IntelWirelessConfig{Rows: 5000})
	if err != nil {
		t.Fatal(err)
	}
	valid := ValidSensorIDs(68)
	ids := r.MustDiscrete("sensor_id")
	hum := r.MustNumeric("humidity")
	light := r.MustNumeric("light")
	for i, id := range ids {
		if valid[id] {
			if hum[i] < 20 || hum[i] > 80 {
				t.Fatalf("healthy humidity %v out of range", hum[i])
			}
			if light[i] < 0 || light[i] > 900 {
				t.Fatalf("healthy light %v out of range", light[i])
			}
		} else if hum[i] > 10 {
			t.Fatalf("failure humidity %v should be implausible", hum[i])
		}
	}
}
