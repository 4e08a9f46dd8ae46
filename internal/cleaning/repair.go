package cleaning

import (
	"fmt"
	"sort"
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

// fdStep compiles the group-majority repair FDRepair and FDImpute share.
// One pass over the resident relation groups its rows by their LHS tuple
// and finds each group's most frequent RHS value among the voting rows,
// ties broken lexicographically. The step then rewrites rows to their
// group's value: the rows fill selects, which do not vote, or every row
// when fill is nil. A group with no voting row keeps its values. The new
// value depends on the LHS, so the RHS graph records weighted edges.
func fdStep(ctx *Context, lhs []string, rhs string, fill func(string) bool) (*step, error) {
	if ctx.Rel == nil {
		return nil, errNotStreamable
	}
	if len(lhs) == 0 {
		return nil, fmt.Errorf("empty FD left-hand side")
	}
	lhsCols := make([][]string, len(lhs))
	for i, a := range lhs {
		col, err := ctx.Rel.Discrete(a)
		if err != nil {
			return nil, err
		}
		lhsCols[i] = col
	}
	rhsCol, err := ctx.Rel.Discrete(rhs)
	if err != nil {
		return nil, err
	}

	// Group rows by LHS tuple and count the voting RHS values per group.
	groupCounts := make(map[string]map[string]int)
	keys := make([]string, len(rhsCol))
	var sb strings.Builder
	for r, v := range rhsCol {
		sb.Reset()
		for i, col := range lhsCols {
			if i > 0 {
				sb.WriteByte('\x1f')
			}
			sb.WriteString(col[r])
		}
		k := sb.String()
		keys[r] = k
		if fill != nil && fill(v) {
			continue
		}
		m := groupCounts[k]
		if m == nil {
			m = make(map[string]int)
			groupCounts[k] = m
		}
		m[v]++
	}

	// Majority (min-cost) value per group, deterministic tie break.
	majority := make(map[string]string, len(groupCounts))
	for k, counts := range groupCounts {
		vals := make([]string, 0, len(counts))
		for v := range counts {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		best := vals[0]
		for _, v := range vals[1:] {
			if counts[v] > counts[best] {
				best = v
			}
		}
		majority[k] = best
	}

	// keys index the resident relation's rows, its only window.
	return rowStep(ctx, []string{rhs}, func(r int, vals []string) []string {
		if fill == nil || fill(vals[0]) {
			if v, ok := majority[keys[r]]; ok {
				vals[0] = v
			}
		}
		return vals
	}), nil
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

func (m MDRepair) compile(ctx *Context) (*step, error) {
	if ctx.Rel == nil {
		return nil, errNotStreamable
	}
	if m.MaxDist < 0 {
		return nil, fmt.Errorf("negative distance threshold %d", m.MaxDist)
	}
	counts, err := ctx.Rel.ValueCounts(m.Attr)
	if err != nil {
		return nil, err
	}
	values := make([]string, 0, len(counts))
	for v := range counts {
		values = append(values, v)
	}
	sort.Strings(values)

	norm := m.Normalize
	if norm == nil {
		norm = func(s string) string { return s }
	}
	normalized := make([]string, len(values))
	for i, v := range values {
		normalized[i] = norm(v)
	}

	// Union-find over distinct values; union pairs within MaxDist.
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
	for i := 0; i < len(values); i++ {
		for j := i + 1; j < len(values); j++ {
			if textutil.Similar(normalized[i], normalized[j], m.MaxDist) {
				union(i, j)
			}
		}
	}

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

	return valueStep(m.Attr, mapOr(mapping)), nil
}
