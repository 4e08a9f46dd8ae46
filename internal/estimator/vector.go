package estimator

import (
	"math/bits"

	"privateclean/internal/relation"
)

// This file is the vectorized predicate executor. Predicates are compiled
// once per (dictionary, predicate) pair into a selection — a description of
// the matching domain codes — so no estimator evaluates a predicate per row.
// The per-code aggregate layer (aggs.go) folds a selection over per-code
// tables in O(domain); conjunctions, which need the rows each predicate
// matches, materialize it into a rowBits bitset with a tight loop over the
// column's uint32 code vector, which the ChannelCache retains for repeated
// queries and intersections. The selection picks the cheapest
// representation for its shape: match-all and match-none short-circuit, an
// equality compares codes directly, anything larger indexes a per-code bool
// table (a branch-free load; faster in practice than comparing even two
// codes per row).

// selection is a compiled predicate over one dictionary encoding: which
// domain codes match. Exactly one representation is active: all, a single
// code in codes, a membership table, or none (all fields zero).
type selection struct {
	all   bool     // every code matches
	codes []uint32 // exactly one matched code
	table []bool   // per-code membership, used for 2+ matched codes
}

// compileSelection evaluates pred once per distinct domain value and picks
// the evaluation strategy. A nil Match means match-all (the package-wide
// nil-predicate contract).
func compileSelection(ix *relation.DiscreteIndex, pred Predicate) selection {
	if pred.Match == nil {
		return selection{all: true}
	}
	table := make([]bool, ix.N())
	last, nm := 0, 0
	for c, v := range ix.Domain {
		if pred.Match(v) {
			table[c] = true
			last = c
			nm++
		}
	}
	switch nm {
	case ix.N():
		return selection{all: true}
	case 0:
		return selection{}
	case 1:
		return selection{codes: []uint32{uint32(last)}}
	default:
		return selection{table: table}
	}
}

// has reports whether code c matches.
func (s selection) has(c uint32) bool {
	switch {
	case s.all:
		return true
	case s.table != nil:
		return s.table[c]
	case len(s.codes) == 1:
		return s.codes[0] == c
	}
	return false
}

// countSelection counts the rows matching sel: an O(domain) sum over the
// per-code row counts.
func countSelection(ix *relation.DiscreteIndex, sel selection) int {
	if sel.all {
		return len(ix.Codes)
	}
	n := 0
	for c, k := range codeCounts(ix) {
		if sel.has(uint32(c)) {
			n += int(k)
		}
	}
	return n
}

// codeCounts returns the per-code row counts of ix, counting the code
// vector when the index carries none.
func codeCounts(ix *relation.DiscreteIndex) []uint32 {
	if ix.Counts != nil {
		return ix.Counts
	}
	counts := make([]uint32, ix.N())
	for _, c := range ix.Codes {
		counts[c]++
	}
	return counts
}

// rowBits is a materialized match bitset: one bit per row, plus the
// precomputed population count. It is immutable once built, so the
// ChannelCache can hand one instance to any number of concurrent readers.
type rowBits struct {
	words []uint64
	rows  int
	ones  int
}

// newRowBits returns an all-zero bitset over rows rows.
func newRowBits(rows int) *rowBits {
	return &rowBits{words: make([]uint64, (rows+63)/64), rows: rows}
}

// get reports whether row i is set.
func (b *rowBits) get(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// bitsFromSelection evaluates sel over a code vector into a bitset.
func bitsFromSelection(codes []uint32, sel selection) *rowBits {
	b := newRowBits(len(codes))
	if sel.all {
		for i := range b.words {
			b.words[i] = ^uint64(0)
		}
		if tail := uint(len(codes)) & 63; tail != 0 && len(b.words) > 0 {
			b.words[len(b.words)-1] = (1 << tail) - 1
		}
		b.ones = len(codes)
		return b
	}
	switch {
	case sel.table != nil:
		table := sel.table
		for i, c := range codes {
			if table[c] {
				b.words[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	case len(sel.codes) == 1:
		m := sel.codes[0]
		for i, c := range codes {
			if c == m {
				b.words[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	b.ones = popcount(b.words)
	return b
}

// intersect returns a new bitset with the rows set in both operands.
func (b *rowBits) intersect(o *rowBits) *rowBits {
	out := newRowBits(b.rows)
	for i := range out.words {
		out.words[i] = b.words[i] & o.words[i]
	}
	out.ones = popcount(out.words)
	return out
}

func popcount(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// bitsForPredicate compiles pred against the column's dictionary and
// materializes the match bitset, routed through the estimator's cache when
// one is attached and the predicate is cacheable.
func (e *Estimator) bitsForPredicate(rel *relation.Relation, pred Predicate) (*rowBits, error) {
	ix, err := rel.DiscreteIndex(pred.Attr)
	if err != nil {
		return nil, err
	}
	return e.Cache.bitsFor(ix, pred), nil
}
