package textutil

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLevenshteinTable(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
		{"Canada", "Canadax", 1},
		{"café", "cafe", 1}, // unicode-aware
		{"ab", "ba", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSimilar(t *testing.T) {
	if !Similar("Canada", "Canadax", 1) {
		t.Fatal("one-char append should be similar at d=1")
	}
	if Similar("Canada", "Mexico", 1) {
		t.Fatal("Canada/Mexico not similar at d=1")
	}
	// Length-difference short circuit.
	if Similar("ab", "abcdef", 2) {
		t.Fatal("length gap 4 > 2 must be dissimilar")
	}
}

// Metric axioms: identity, symmetry, triangle inequality.
func TestLevenshteinMetricAxioms(t *testing.T) {
	clamp := func(s string) string {
		if len(s) > 12 {
			return s[:12]
		}
		return s
	}
	identity := func(a string) bool {
		a = clamp(a)
		return Levenshtein(a, a) == 0
	}
	symmetry := func(a, b string) bool {
		a, b = clamp(a), clamp(b)
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	triangle := func(a, b, c string) bool {
		a, b, c = clamp(a), clamp(b), clamp(c)
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	for name, f := range map[string]any{"identity": identity, "symmetry": symmetry, "triangle": triangle} {
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Distance is bounded below by the rune-length difference and above by the
// longer length.
func TestLevenshteinBounds(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 12 {
			a = a[:12]
		}
		if len(b) > 12 {
			b = b[:12]
		}
		la, lb := len([]rune(a)), len([]rune(b))
		d := Levenshtein(a, b)
		diff := la - lb
		if diff < 0 {
			diff = -diff
		}
		maxLen := la
		if lb > maxLen {
			maxLen = lb
		}
		return d >= diff && d <= maxLen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLevenshteinBoundedAgreesWithFull cross-checks the banded DP against
// the full computation over random rune strings at every useful bound.
func TestLevenshteinBoundedAgreesWithFull(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := []rune("abcdeé日本")
	randStr := func() string {
		n := rng.Intn(12)
		rs := make([]rune, n)
		for i := range rs {
			rs[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(rs)
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := randStr(), randStr()
		full := Levenshtein(a, b)
		for max := 0; max <= 12; max++ {
			got := LevenshteinBounded(a, b, max)
			if full <= max {
				if got != full {
					t.Fatalf("LevenshteinBounded(%q, %q, %d) = %d, full distance %d", a, b, max, got, full)
				}
			} else if got <= max {
				t.Fatalf("LevenshteinBounded(%q, %q, %d) = %d, but full distance %d exceeds the bound", a, b, max, got, full)
			}
		}
	}
}

func TestLevenshteinBoundedEdges(t *testing.T) {
	if got := LevenshteinBounded("", "abc", 3); got != 3 {
		t.Errorf("empty vs abc, max 3: %d", got)
	}
	if got := LevenshteinBounded("", "abc", 2); got <= 2 {
		t.Errorf("empty vs abc, max 2 should exceed the bound: %d", got)
	}
	if got := LevenshteinBounded("same", "same", 0); got != 0 {
		t.Errorf("identical strings, max 0: %d", got)
	}
	if got := LevenshteinBounded("a", "b", -1); got <= 0 {
		t.Errorf("negative max should behave as 0: %d", got)
	}
	if Similar("a", "b", -1) {
		t.Error("Similar with negative distance must be false")
	}
}

// TestLevenshteinBoundedNoAllocs holds the MDRepair verification path to
// zero allocations on values of at most 32 runes.
func TestLevenshteinBoundedNoAllocs(t *testing.T) {
	a := "Ünited Kingdom of Great Brïtain" // 31 runes, multi-byte
	b := "United Kingdom of Great Britain and"
	b = b[:32]
	for _, max := range []int{0, 1, 3} {
		if n := testing.AllocsPerRun(100, func() { LevenshteinBounded(a, b, max) }); n != 0 {
			t.Errorf("max %d: %v allocs per call, want 0", max, n)
		}
	}
}

// TestLevenshteinBoundedStackRowEdge differentially checks the banded DP
// against the full one on multi-byte strings whose lengths straddle the
// 32-rune stack rows, in both argument orders. Half the pairs are a string
// and a copy with up to three random rune edits, so distances at or under
// the bound are common.
func TestLevenshteinBoundedStackRowEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune("ab日é")
	randRunes := func(n int) []rune {
		rs := make([]rune, n)
		for i := range rs {
			rs[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return rs
	}
	for trial := 0; trial < 1000; trial++ {
		ra := randRunes(28 + rng.Intn(9)) // 28..36 runes
		rb := randRunes(28 + rng.Intn(9))
		if trial%2 == 0 {
			rb = append([]rune(nil), ra...)
			for e := rng.Intn(4); e > 0; e-- {
				i := rng.Intn(len(rb))
				switch rng.Intn(3) {
				case 0:
					rb[i] = alphabet[rng.Intn(len(alphabet))]
				case 1:
					rb = append(rb[:i], rb[i+1:]...)
				default:
					rb = append(rb[:i], append([]rune{alphabet[rng.Intn(len(alphabet))]}, rb[i:]...)...)
				}
			}
		}
		a, b := string(ra), string(rb)
		full := Levenshtein(a, b)
		for max := 0; max <= 4; max++ {
			for _, got := range []int{LevenshteinBounded(a, b, max), LevenshteinBounded(b, a, max)} {
				if (full <= max && got != full) || (full > max && got <= max) {
					t.Fatalf("LevenshteinBounded(%q, %q, %d) = %d, full distance %d", a, b, max, got, full)
				}
			}
		}
	}
}
