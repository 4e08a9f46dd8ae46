package cleaning

import (
	"fmt"
	"strings"

	"privateclean/internal/relation"
	"privateclean/internal/textutil"
)

// FDRepair repairs violations of a functional dependency LHS -> RHS by
// value modification, in the style of the cost-based heuristic of Bohannon
// et al. (SIGMOD 2005) that the paper's Example 2 and the TPC-DS experiment
// (Section 8.3.4) use: within each group of rows agreeing on the LHS
// attributes, the RHS attribute is rewritten to the group's most frequent
// value (minimum number of cell changes), with ties broken
// lexicographically so the repair is deterministic.
//
// FDRepair reads multiple attributes, so its provenance edges on RHS are
// recorded row-level and may be weighted (the Example 6 situation: the same
// dirty RHS value can be repaired to different clean values in different
// groups).
type FDRepair struct {
	LHS []string
	RHS string
}

// Name implements Op.
func (f FDRepair) Name() string {
	return fmt.Sprintf("fd-repair(%s -> %s)", strings.Join(f.LHS, ","), f.RHS)
}

func (f FDRepair) compile(ctx *Context) (*step, error) {
	return fdStep(ctx, f.LHS, f.RHS, nil)
}

// FDImpute fills *missing* values of the RHS attribute using a functional
// dependency LHS -> RHS: within each group of rows agreeing on LHS, rows
// whose RHS equals Missing receive the group's most frequent non-missing
// value (ties broken lexicographically). Rows with a non-missing RHS are
// untouched, matching the paper's Example 6 ("1, NULL" -> "1, John Doe").
// Groups with no non-missing value keep Missing.
//
// Because the imputed value depends on the LHS attributes, the same dirty
// value (Missing) maps to many clean values: the provenance edges on RHS are
// weighted (Section 7).
type FDImpute struct {
	LHS     []string
	RHS     string
	Missing string // defaults to relation.Null
}

// Name implements Op.
func (f FDImpute) Name() string {
	return fmt.Sprintf("fd-impute(%s -> %s)", strings.Join(f.LHS, ","), f.RHS)
}

func (f FDImpute) compile(ctx *Context) (*step, error) {
	missing := f.Missing
	if missing == "" {
		missing = relation.Null
	}
	return fdStep(ctx, f.LHS, f.RHS, func(v string) bool { return v == missing })
}

// fdStep compiles the group-majority repair FDRepair and FDImpute share. Its
// summary counts the RHS values of the voting rows (those fill does not
// select; all when fill is nil) per LHS tuple. The built step rewrites the
// rows fill selects (all when nil) to their group's most frequent value,
// ties broken lexicographically; a group with no voting row keeps its values.
// The new value depends on the LHS, so the RHS graph records weighted edges.
func fdStep(ctx *Context, lhs []string, rhs string, fill func(string) bool) (*step, error) {
	if len(lhs) == 0 {
		return nil, fmt.Errorf("empty FD left-hand side")
	}
	votes := make(map[string]map[string]int)
	var key []byte
	return &step{
		reads: []string{rhs},
		observe: func(win *relation.Relation) error {
			cols, err := discreteCols(win, append(lhs[:len(lhs):len(lhs)], rhs))
			if err != nil {
				return err
			}
			lhsCols, rhsCol := cols[:len(lhs)], cols[len(lhs)]
			for r, c := range rhsCol.Codes {
				v := rhsCol.Domain[c]
				if fill != nil && fill(v) {
					continue
				}
				key = groupKey(key, lhsCols, r)
				if votes[string(key)] == nil {
					votes[string(key)] = make(map[string]int)
				}
				votes[string(key)][v]++
			}
			return nil
		},
		build: func() *step {
			// Majority (min-cost) value per group, deterministic tie break.
			majority := make(map[string]string, len(votes))
			for k, counts := range votes {
				best, most := "", 0
				for v, n := range counts {
					if n > most || n == most && v < best {
						best, most = v, n
					}
				}
				majority[k] = best
			}
			return rowStep(ctx, []string{rhs}, func(win *relation.Relation) (func(int, []string) []string, error) {
				lhsCols, err := discreteCols(win, lhs)
				if err != nil {
					return nil, err
				}
				return func(r int, vals []string) []string {
					if fill == nil || fill(vals[0]) {
						key = groupKey(key, lhsCols, r)
						if v, ok := majority[string(key)]; ok {
							vals[0] = v
						}
					}
					return vals
				}, nil
			})
		},
	}, nil
}

// discreteCols returns the encodings of a window's discrete columns.
func discreteCols(win *relation.Relation, attrs []string) ([]*relation.DiscreteIndex, error) {
	cols := make([]*relation.DiscreteIndex, len(attrs))
	for i, a := range attrs {
		col, err := win.DiscreteIndex(a)
		if err != nil {
			return nil, err
		}
		cols[i] = col
	}
	return cols, nil
}

// groupKey writes row r's LHS tuple into buf as its values joined by the
// unit separator, so a map lookup through string(buf) does not allocate.
func groupKey(buf []byte, cols []*relation.DiscreteIndex, r int) []byte {
	buf = buf[:0]
	for i, col := range cols {
		if i > 0 {
			buf = append(buf, '\x1f')
		}
		buf = append(buf, col.Value(r)...)
	}
	return buf
}

// MDRepair resolves a matching dependency on a single attribute using an
// edit-distance similarity metric (Section 8.3.4's ca_country repair):
// distinct values whose pairwise Levenshtein distance is at most MaxDist are
// clustered together, and every member of a cluster is rewritten to the
// cluster's canonical value — its most frequent member (ties broken
// lexicographically).
//
// The clustering is computed over distinct values only, so the repair is a
// deterministic value mapping and the provenance edges are fork-free.
type MDRepair struct {
	Attr    string
	MaxDist int
	// Normalize optionally canonicalizes values before comparison
	// (e.g. textutil.Normalize). The rewritten value is always an original
	// (un-normalized) domain member.
	Normalize func(string) string
}

// Name implements Op.
func (m MDRepair) Name() string { return fmt.Sprintf("md-repair(%s, dist<=%d)", m.Attr, m.MaxDist) }

func (m MDRepair) compile(*Context) (*step, error) {
	if m.MaxDist < 0 {
		return nil, fmt.Errorf("negative distance threshold %d", m.MaxDist)
	}
	counts := valueCounts{}
	return &step{
		reads:   []string{m.Attr},
		observe: counts.observer(m.Attr),
		build:   func() *step { return valueStep(m.Attr, mapOr(m.clusters(counts))) },
	}, nil
}

// clusters maps every counted value to its cluster's canonical value.
func (m MDRepair) clusters(counts valueCounts) map[string]string {
	values := counts.sorted()
	norm := m.Normalize
	if norm == nil {
		norm = func(s string) string { return s }
	}
	normalized := make([]string, len(values))
	for i, v := range values {
		normalized[i] = norm(v)
	}

	// Union-find over distinct values; union pairs within MaxDist. The
	// canonical value of a cluster does not depend on the union order.
	parent := make([]int, len(values))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	similarPairs(normalized, m.MaxDist, union)

	// Canonical per cluster: highest multiplicity, lexicographic tie break.
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

// similarPairs calls join(i, j) for every pair of values within Levenshtein
// distance k and returns how many candidate pairs it verified and how many
// entries it indexed. Two strings within distance k share a string that
// each reaches by deleting at most k runes (delete the substituted runes
// and each side's unmatched ones), so each value's candidates are the
// earlier values that share such a deletion variant, and textutil.Similar
// verifies each. A value with more than min(maxVariants, len(values))
// variants is compared with every other value directly instead, so the
// index holds at most maxVariants entries per value and no value costs
// more than the all-pairs loop would.
func similarPairs(values []string, k int, join func(i, j int)) (verified, indexed int) {
	index := make(map[string][]int)  // deletion variant -> the earlier values reaching it
	var wide []int                   // the values compared directly
	seen := make([]int, len(values)) // seen[j] == i+1 once (j, i) is verified
	check := func(i, j int) {
		if seen[j] != i+1 {
			seen[j] = i + 1
			verified++
			if textutil.Similar(values[i], values[j], k) {
				join(j, i)
			}
		}
	}
	limit := min(maxVariants, len(values))
	for i, v := range values {
		r := []rune(v)
		if variants(len(r), k, limit) > limit {
			for j := 0; j < i; j++ {
				check(i, j)
			}
			wide = append(wide, i)
			continue
		}
		for _, j := range wide {
			check(i, j)
		}
		deletions(r, 0, k, func(s string) {
			m := index[s]
			if len(m) > 0 && m[len(m)-1] == i {
				return // the same variant by another set of deletions
			}
			for _, j := range m {
				check(i, j)
			}
			index[s] = append(m, i)
			indexed++
		})
	}
	return verified, indexed
}

// maxVariants admits values of up to 63, 10 and 7 runes at distance 1-3.
const maxVariants = 64

// variants bounds the number of strings that deleting at most k of l runes
// yields, Σ_{d≤k} C(l, d), saturating past limit.
func variants(l, k, limit int) int {
	total, c := 0, 1
	for d := 0; d <= k && d <= l; d++ {
		if d > 0 {
			c = c * (l - d + 1) / d
		}
		if total += c; total > limit {
			return limit + 1
		}
	}
	return total
}

// deletions calls f with r and every string obtained from it by deleting
// at most k runes at positions from on; a string that several sets of
// deletions yield repeats.
func deletions(r []rune, from, k int, f func(string)) {
	f(string(r))
	if k == 0 || len(r) == 0 {
		return
	}
	next := make([]rune, len(r)-1)
	for p := from; p < len(r); p++ {
		copy(next, r[:p])
		copy(next[p:], r[p+1:])
		deletions(next, p, k-1, f)
	}
}
