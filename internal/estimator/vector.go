package estimator

import (
	"slices"

	"privateclean/internal/relation"
)

// This file is the vectorized predicate executor. Predicates are compiled
// once per (dictionary, predicate) pair into a selection — a description of
// the matching domain codes — so no estimator evaluates a predicate per row.
// The per-code aggregate layer (aggs.go) folds a selection over per-code
// tables in O(domain), and a conjunction weighs each joint cell through
// its conjuncts' selections (conjunction.go). Match-all short-circuits;
// anything else is the ascending list of matched codes, which an Eq or In
// finds by binary search and no predicate needs a domain-sized table for.

// selection is a compiled predicate over one dictionary encoding: which
// domain codes match. It is all, the ascending matched codes, or none (all
// fields zero).
type selection struct {
	all   bool     // every code matches
	codes []uint32 // the matched codes, ascending
}

// compileSelection finds the domain codes pred matches. Eq and In look
// their sorted value set up in the sorted domain, O(k log N) for k values;
// every other predicate is evaluated once per distinct domain value. A nil
// Match means match-all (the package-wide nil-predicate contract).
func compileSelection(ix *relation.DiscreteIndex, pred Predicate) selection {
	if pred.Match == nil {
		return selection{all: true}
	}
	var codes []uint32
	if pred.values != nil {
		codes = make([]uint32, 0, len(pred.values))
		for _, v := range pred.values {
			if c, ok := slices.BinarySearch(ix.Domain, v); ok {
				codes = append(codes, uint32(c))
			}
		}
		debugCheckSelection(ix.Domain, pred, codes)
	} else {
		for c, v := range ix.Domain {
			if pred.Match(v) {
				codes = append(codes, uint32(c))
			}
		}
	}
	switch len(codes) {
	case ix.N():
		return selection{all: true}
	case 0:
		return selection{}
	}
	return selection{codes: codes}
}

// has reports whether code c matches.
func (s selection) has(c uint32) bool {
	if s.all {
		return true
	}
	_, ok := slices.BinarySearch(s.codes, c)
	return ok
}
