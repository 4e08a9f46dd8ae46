package estimator

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Predicate is a deterministic condition over a single discrete attribute —
// the cond(d) of the paper's query class (Section 3.2.2). Every predicate is
// equivalent to selecting a subset of the attribute's distinct values.
type Predicate struct {
	// Attr is the discrete attribute the predicate conditions on.
	Attr string
	// Match reports whether a distinct value satisfies the predicate.
	Match func(string) bool
	// desc is a human-readable rendering for errors and logs. For Eq, NotEq,
	// In, And, and Not it is canonical: equal descs imply equal semantics,
	// which is what lets a ChannelCache key on it.
	desc string
	// noCache marks predicates whose desc does not uniquely determine their
	// semantics (Fn wraps an arbitrary closure behind a name), so a
	// ChannelCache must not key on it.
	noCache bool
	// values is the exact matching value set of Eq and In, sorted and
	// deduplicated (empty, not nil, for an empty In), so compileSelection
	// can look each value up in a sorted domain instead of calling Match
	// on every domain value. It is nil for every other predicate.
	values []string
}

// String renders the predicate.
func (p Predicate) String() string {
	if p.desc != "" {
		return p.desc
	}
	return p.Attr + " matches <func>"
}

// Eq builds the predicate attr = value.
func Eq(attr, value string) Predicate {
	return Predicate{
		Attr:   attr,
		Match:  func(v string) bool { return v == value },
		desc:   fmt.Sprintf("%s = %q", attr, value),
		values: []string{value},
	}
}

// NotEq builds the predicate attr != value.
func NotEq(attr, value string) Predicate {
	return Predicate{
		Attr:  attr,
		Match: func(v string) bool { return v != value },
		desc:  fmt.Sprintf("%s != %q", attr, value),
	}
}

// In builds the predicate attr IN (values...).
func In(attr string, values ...string) Predicate {
	set := make(map[string]struct{}, len(values))
	for _, v := range values {
		set[v] = struct{}{}
	}
	sorted := make([]string, len(values))
	copy(sorted, values)
	sort.Strings(sorted)
	// Values are quoted so the rendering is unambiguous: without quotes,
	// In("cat", "b, c") and In("cat", "b", "c") would render identically and
	// alias in a ChannelCache.
	quoted := make([]string, len(sorted))
	for i, v := range sorted {
		quoted[i] = fmt.Sprintf("%q", v)
	}
	return Predicate{
		Attr: attr,
		Match: func(v string) bool {
			_, ok := set[v]
			return ok
		},
		desc:   fmt.Sprintf("%s IN (%s)", attr, strings.Join(quoted, ", ")),
		values: slices.Compact(sorted),
	}
}

// Fn builds a predicate from an arbitrary deterministic value function, e.g.
// the paper's isEurope(country) (Section 8.5). Two Fn predicates with the
// same name may wrap different functions, so Fn-built predicates are never
// cached by a ChannelCache.
func Fn(attr, name string, f func(string) bool) Predicate {
	return Predicate{Attr: attr, Match: f, desc: fmt.Sprintf("%s(%s)", name, attr), noCache: true}
}

// And conjoins two predicates over the same attribute (they reduce to one
// value subset). A nil Match on either side means match-all. The combined
// desc is built from the operands' canonical descs, so And of cacheable
// predicates stays cacheable; if either side is uncacheable (Fn-built, or a
// hand-built Match with no desc), so is the conjunction.
func And(a, b Predicate) Predicate {
	am, bm := a.Match, b.Match
	return Predicate{
		Attr:    a.Attr,
		Match:   func(v string) bool { return (am == nil || am(v)) && (bm == nil || bm(v)) },
		desc:    "(" + a.String() + " AND " + b.String() + ")",
		noCache: a.noCache || b.noCache || (a.Match != nil && a.desc == "") || (b.Match != nil && b.desc == ""),
	}
}

// Not negates a predicate (used internally for the sum estimator's
// complement-query trick, Section 5.5). A nil Match means match-all, so its
// negation matches nothing.
func Not(p Predicate) Predicate {
	m := p.Match
	return Predicate{
		Attr:  p.Attr,
		Match: func(v string) bool { return m != nil && !m(v) },
		desc:  "NOT (" + p.String() + ")",
		// The fallback "<func>" rendering of a desc-less predicate is not
		// canonical, so its negation cannot be cache-keyed either.
		noCache: p.noCache || (p.Match != nil && p.desc == ""),
	}
}
