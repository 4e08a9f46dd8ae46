package cleaning

import (
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"privateclean/internal/textutil"
)

// allPairsClusters is MDRepair's clustering by the all-pairs loop: every
// pair of distinct normalized values within MaxDist is joined. It is the
// reference the deletion-variant index must reproduce.
func allPairsClusters(m MDRepair, counts valueCounts) map[string]string {
	values := counts.sorted()
	norm := m.Normalize
	if norm == nil {
		norm = func(s string) string { return s }
	}
	parent := make([]int, len(values))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for i := range values {
		for j := i + 1; j < len(values); j++ {
			if textutil.Similar(norm(values[i]), norm(values[j]), m.MaxDist) {
				parent[find(j)] = find(i)
			}
		}
	}
	canonical := make(map[int]string)
	for i, v := range values {
		root := find(i)
		cur, ok := canonical[root]
		if !ok || counts[v] > counts[cur] || (counts[v] == counts[cur] && v < cur) {
			canonical[root] = v
		}
	}
	mapping := make(map[string]string, len(values))
	for i, v := range values {
		mapping[v] = canonical[find(i)]
	}
	return mapping
}

// randomDomain draws distinct values over a small alphabet with multi-byte
// runes, short enough that many pairs fall within a few edits.
func randomDomain(rng *rand.Rand) valueCounts {
	alphabet := []rune("abAB é☃日")
	counts := valueCounts{}
	for n := 1 + rng.Intn(60); len(counts) < n; {
		r := make([]rune, rng.Intn(7))
		for i := range r {
			r[i] = alphabet[rng.Intn(len(alphabet))]
		}
		counts[string(r)] = 1 + rng.Intn(4)
	}
	return counts
}

// TestMDRepairClustersMatchAllPairs: the deletion-variant index yields the
// all-pairs loop's clusters on random domains with multi-byte runes, at
// MaxDist 0 to 3, with and without Normalize.
func TestMDRepairClustersMatchAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		counts := randomDomain(rng)
		m := MDRepair{Attr: "a", MaxDist: trial % 4}
		if trial%3 == 0 {
			m.Normalize = func(s string) string { return strings.TrimSpace(strings.ToLower(s)) }
		}
		if got, want := m.clusters(counts), allPairsClusters(m, counts); !maps.Equal(got, want) {
			t.Fatalf("trial %d, MaxDist %d, domain %q:\nindex     %v\nall pairs %v", trial, m.MaxDist, counts.sorted(), got, want)
		}
	}
}

// TestMDRepairHighCardinality: over 30,000 distinct noisy scores at
// MaxDist 1 the index verifies under 1% of the 449,985,000 pairs the
// all-pairs loop compares.
func TestMDRepairHighCardinality(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seen := map[string]bool{}
	var values []string
	for len(values) < 30000 {
		v := fmt.Sprintf("%.4f", 3+rng.NormFloat64())
		if !seen[v] {
			seen[v] = true
			values = append(values, v)
		}
	}
	joined := 0
	verified, _ := similarPairs(values, 1, func(i, j int) { joined++ })
	allPairs := len(values) * (len(values) - 1) / 2
	if verified >= allPairs/100 {
		t.Fatalf("verified %d candidate pairs for %d values, want under %d", verified, len(values), allPairs/100)
	}
	if joined == 0 || joined > verified {
		t.Fatalf("joined %d of %d verified pairs", joined, verified)
	}
	t.Logf("%d values: %d candidate pairs verified, %d joined", len(values), verified, joined)
}

// TestMDRepairIndexSize: long values at MaxDist 3 (697 deletion variants
// each at 16 runes, fewer than the 800 values) are compared directly rather
// than indexed, so the index stays within maxVariants entries per value,
// and the clusters still match the all-pairs loop's.
func TestMDRepairIndexSize(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	alphabet := []rune("abcdé日")
	counts := valueCounts{}
	for _, n := range []int{16, 4} {
		for target := len(counts) + 400; len(counts) < target; {
			r := make([]rune, n)
			for i := range r {
				r[i] = alphabet[rng.Intn(len(alphabet))]
			}
			counts[string(r)] = 1 + rng.Intn(3)
		}
	}
	m := MDRepair{Attr: "a", MaxDist: 3}
	values := counts.sorted()
	verified, indexed := similarPairs(values, m.MaxDist, func(i, j int) {})
	if indexed > maxVariants*len(values) {
		t.Fatalf("indexed %d entries for %d values, want at most %d", indexed, len(values), maxVariants*len(values))
	}
	if indexed == 0 || verified == 0 {
		t.Fatalf("indexed %d entries, verified %d pairs: want both paths taken", indexed, verified)
	}
	if got, want := m.clusters(counts), allPairsClusters(m, counts); !maps.Equal(got, want) {
		t.Fatalf("index clusters differ from the all-pairs loop's")
	}
	t.Logf("%d values: %d index entries, %d candidate pairs verified", len(values), indexed, verified)
}
