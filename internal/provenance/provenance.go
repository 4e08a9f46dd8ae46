// Package provenance implements PrivateClean's value provenance graphs
// (Sections 6 and 7 of the paper).
//
// For each discrete attribute the analyst cleans, a bipartite graph maps the
// distinct values of the private relation *before* cleaning (the dirty
// domain L) to the distinct values *after* cleaning (the clean domain M).
//
// Single-attribute deterministic cleaning yields a fork-free graph whose
// edges all have weight 1 (Section 6.2): each dirty value maps to exactly
// one clean value. Multi-attribute cleaning can fork a dirty value across
// several clean values; each edge l -> m then carries the weight
// w_lm = |rows with dirty value l mapped to m| / |rows with dirty value l|
// (Section 7.1).
//
// A predicate over clean values defines a vertex cut; the effective
// selectivity on the dirty domain is
//
//	l = sum over l in L_pred, m in M_pred of w_lm
//
// which the estimators combine with the randomization probability p and the
// dirty-domain size N to compute tau_p and tau_n.
//
// Graphs compose: applying a second cleaner to an already-cleaned attribute
// multiplies edge weights along paths, so the stored graph always maps the
// original private domain to the current clean domain.
package provenance

import (
	"fmt"
	"sort"
)

// Graph is the provenance graph for one discrete attribute. Create one with
// NewGraph (identity over the attribute's private domain) and evolve it with
// ApplyDeterministic / ApplyTransitions as cleaners run.
type Graph struct {
	attr string
	n    int // |L|: size of the dirty (private, pre-cleaning) domain

	// parents[m][l] = w_lm: weight of the edge from dirty value l to clean
	// value m. For every dirty l, sum over m of parents[m][l] == 1.
	parents map[string]map[string]float64

	// clean lists M in sorted order and mass[i] the total weight of
	// clean[i]'s parents, summed in sorted dirty-value order. index
	// rebuilds both whenever parents changes, so every sum over the graph
	// adds the same numbers in the same order: floating-point addition is
	// not associative, and map order would vary the bits run to run. They
	// are never written in place, so clones share them.
	clean []string
	mass  []float64

	forked bool // true once any dirty value maps to more than one clean value
}

// NewGraph creates the identity graph over the given dirty domain: every
// value maps to itself with weight 1. The domain is the attribute's domain
// in the private relation before any cleaning (ViewMeta.Domain).
func NewGraph(attr string, dirtyDomain []string) *Graph {
	g := &Graph{
		attr:    attr,
		n:       len(dirtyDomain),
		parents: make(map[string]map[string]float64, len(dirtyDomain)),
	}
	for _, v := range dirtyDomain {
		g.parents[v] = map[string]float64{v: 1}
	}
	g.index()
	return g
}

// index rebuilds clean and mass from parents.
func (g *Graph) index() {
	clean := make([]string, 0, len(g.parents))
	for m := range g.parents {
		clean = append(clean, m)
	}
	sort.Strings(clean)
	mass := make([]float64, len(clean))
	var dirty []string
	for i, m := range clean {
		dirty = dirty[:0]
		for l := range g.parents[m] {
			dirty = append(dirty, l)
		}
		sort.Strings(dirty)
		for _, l := range dirty {
			mass[i] += g.parents[m][l]
		}
	}
	g.clean, g.mass = clean, mass
}

// Attr returns the name of the attribute this graph tracks.
func (g *Graph) Attr() string { return g.attr }

// DomainSize returns N = |L|, the dirty-domain size used by the estimators.
func (g *Graph) DomainSize() int { return g.n }

// Forked reports whether any dirty value maps to more than one clean value,
// i.e. whether the graph requires the weighted (Section 7) treatment.
func (g *Graph) Forked() bool { return g.forked }

// CleanDomain returns the sorted clean-side domain M.
func (g *Graph) CleanDomain() []string {
	return append([]string(nil), g.clean...)
}

// Parents returns a copy of the weighted parent set of one clean value:
// dirty value -> w_lm. The second result is false if the clean value is not
// in M.
func (g *Graph) Parents(clean string) (map[string]float64, bool) {
	ps, ok := g.parents[clean]
	if !ok {
		return nil, false
	}
	out := make(map[string]float64, len(ps))
	for l, w := range ps {
		out[l] = w
	}
	return out, true
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := &Graph{attr: g.attr, n: g.n, forked: g.forked, clean: g.clean, mass: g.mass,
		parents: make(map[string]map[string]float64, len(g.parents))}
	for m, ps := range g.parents {
		cp := make(map[string]float64, len(ps))
		for l, w := range ps {
			cp[l] = w
		}
		out.parents[m] = cp
	}
	return out
}

// ApplyDeterministic composes the graph with a deterministic value mapping
// f: M -> M' (a single-attribute Transform or Merge). Fork-freeness is
// preserved: if the graph was unweighted it stays unweighted.
func (g *Graph) ApplyDeterministic(f func(string) string) {
	next := make(map[string]map[string]float64, len(g.parents))
	for _, m := range g.clean {
		ps := g.parents[m]
		m2 := f(m)
		dst := next[m2]
		if dst == nil {
			dst = make(map[string]float64, len(ps))
			next[m2] = dst
		}
		for l, w := range ps {
			dst[l] += w
		}
	}
	g.parents = next
	g.index()
}

// ApplyTransitions composes the graph with a row-level rewrite of the
// attribute, given as transition counts: trans[m][m2] is the number of rows
// whose value went from m to m2. This is the general (possibly forking) case
// of Section 7: a multi-attribute cleaner can send rows with the same
// current value to different new values, so the induced mapping M -> M' is
// weighted by observed row fractions. Counts summed window by window give
// the same weights as counts over the concatenated rows.
func (g *Graph) ApplyTransitions(trans map[string]map[string]int) {
	totals := make(map[string]int, len(trans))
	for m, t := range trans {
		for _, cnt := range t {
			totals[m] += cnt
		}
	}
	next := make(map[string]map[string]float64)
	for _, m := range g.clean {
		ps := g.parents[m]
		t, seen := trans[m]
		if !seen {
			// The current clean value has no rows (it may have been randomized
			// away entirely, or never had support); keep it as an identity
			// mapping so its provenance is not lost.
			dst := next[m]
			if dst == nil {
				dst = make(map[string]float64, len(ps))
				next[m] = dst
			}
			for l, w := range ps {
				dst[l] += w
			}
			continue
		}
		total := float64(totals[m])
		if len(t) > 1 {
			g.forked = true
		}
		for m2, cnt := range t {
			frac := float64(cnt) / total
			dst := next[m2]
			if dst == nil {
				dst = make(map[string]float64, len(ps))
				next[m2] = dst
			}
			for l, w := range ps {
				dst[l] += w * frac
			}
		}
	}
	g.parents = next
	g.index()
}

// Selectivity returns the effective dirty-domain selectivity l of a
// predicate over clean values:
//
//	l = sum over m in M_pred of sum over parents l of w_lm
//
// For a fork-free graph this equals |L_pred|, the vertex count of Section
// 6.3; for a weighted graph it is the Section 7.2 weighted cut. Clean values
// not present in M contribute nothing.
func (g *Graph) Selectivity(pred func(clean string) bool) float64 {
	total := 0.0
	for i, m := range g.clean {
		if pred(m) {
			total += g.mass[i]
		}
	}
	return total
}

// UnweightedSelectivity returns the cut size treating every edge as weight
// 1 regardless of recorded weights: |{l in L : exists m in M_pred with an
// edge l->m}|. This is the "PC-U" ablation of Figure 7 — correct for
// fork-free graphs, biased for forked ones.
func (g *Graph) UnweightedSelectivity(pred func(clean string) bool) float64 {
	seen := make(map[string]struct{})
	for m, ps := range g.parents {
		if !pred(m) {
			continue
		}
		for l := range ps {
			seen[l] = struct{}{}
		}
	}
	return float64(len(seen))
}

// Validate checks the graph invariant that every dirty value's outgoing
// weights sum to 1 (within tol). It returns the first violation found.
func (g *Graph) Validate(tol float64) error {
	sums := make(map[string]float64)
	for _, ps := range g.parents {
		for l, w := range ps {
			if w < -tol {
				return fmt.Errorf("provenance: negative weight %v on dirty value %q", w, l)
			}
			sums[l] += w
		}
	}
	for l, s := range sums {
		if s < 1-tol || s > 1+tol {
			return fmt.Errorf("provenance: dirty value %q has total weight %v, want 1", l, s)
		}
	}
	return nil
}

// EdgeCount returns the number of edges currently stored. For a fork-free
// graph this is at most |L| (Proposition 3's O(N-hat) space bound).
func (g *Graph) EdgeCount() int {
	n := 0
	for _, ps := range g.parents {
		n += len(ps)
	}
	return n
}

// Store holds one provenance graph per cleaned discrete attribute, plus the
// base-attribute link for extracted attributes (an attribute created by
// Extract inherits the randomization parameters of its source attribute).
type Store struct {
	graphs map[string]*Graph
	// base maps an extracted attribute name to the source attribute whose
	// privacy parameters govern it (Section 3.2.1's Extract).
	base map[string]string
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{graphs: make(map[string]*Graph), base: make(map[string]string)}
}

// Ensure returns the graph for attr, creating the identity graph over
// dirtyDomain on first use.
func (s *Store) Ensure(attr string, dirtyDomain []string) *Graph {
	if g, ok := s.graphs[attr]; ok {
		return g
	}
	g := NewGraph(attr, dirtyDomain)
	s.graphs[attr] = g
	return g
}

// Graph returns the graph for attr if one exists.
func (s *Store) Graph(attr string) (*Graph, bool) {
	g, ok := s.graphs[attr]
	return g, ok
}

// Attrs returns the sorted list of attributes with graphs.
func (s *Store) Attrs() []string {
	out := make([]string, 0, len(s.graphs))
	for a := range s.graphs {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// LinkExtracted registers newAttr as extracted from srcAttr and stores its
// graph. Queries against newAttr should use srcAttr's privacy parameters.
func (s *Store) LinkExtracted(newAttr, srcAttr string, g *Graph) {
	s.base[newAttr] = srcAttr
	s.graphs[newAttr] = g
}

// BaseAttr resolves the attribute whose privacy parameters govern attr:
// attr itself unless it was extracted, in which case the (transitively
// resolved) source attribute.
func (s *Store) BaseAttr(attr string) string {
	seen := map[string]bool{attr: true}
	for {
		src, ok := s.base[attr]
		if !ok || seen[src] {
			return attr
		}
		seen[src] = true
		attr = src
	}
}
