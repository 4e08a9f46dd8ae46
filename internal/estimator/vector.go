package estimator

import (
	"slices"

	"privateclean/internal/relation"
)

// This file is the vectorized predicate executor. Predicates are compiled
// once per (dictionary, predicate) pair into a selection — a description of
// the matching domain codes — so no estimator evaluates a predicate per row.
// The per-code aggregate layer (aggs.go) folds a selection over per-code
// tables in O(domain), and conjunctions turn each conjunct's selection into
// per-code weights over a joint table (conjunction.go). The selection
// picks the cheapest representation for its shape: match-all and
// match-none short-circuit, an equality compares one code, anything larger
// indexes a per-code bool table.

// selection is a compiled predicate over one dictionary encoding: which
// domain codes match. Exactly one representation is active: all, a single
// code in codes, a membership table, or none (all fields zero).
type selection struct {
	all   bool     // every code matches
	codes []uint32 // exactly one matched code
	table []bool   // per-code membership, used for 2+ matched codes
}

// compileSelection finds the domain codes pred matches and picks the
// evaluation strategy. Eq and In look their value set up in the sorted
// domain, O(k log N) for k values; every other predicate is evaluated once
// per distinct domain value. A nil Match means match-all (the package-wide
// nil-predicate contract).
func compileSelection(ix *relation.DiscreteIndex, pred Predicate) selection {
	if pred.Match == nil {
		return selection{all: true}
	}
	table := make([]bool, ix.N())
	last, nm := 0, 0
	mark := func(c int) {
		table[c] = true
		last = c
		nm++
	}
	if pred.values != nil {
		for _, v := range pred.values {
			if c, ok := slices.BinarySearch(ix.Domain, v); ok {
				mark(c)
			}
		}
	} else {
		for c, v := range ix.Domain {
			if pred.Match(v) {
				mark(c)
			}
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
