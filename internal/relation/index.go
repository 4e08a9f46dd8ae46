package relation

import (
	"fmt"
	"slices"
	"strings"
)

// DiscreteIndex is the dictionary encoding of one discrete column, and the
// only form a relation stores one in: the sorted distinct values the column
// holds (its Domain) plus one uint32 code per row giving the value's
// position in that domain. Hot paths — randomized response, the estimator
// predicate scans, value counting — operate over the codes instead of
// repeated string compares and map lookups.
//
// Every index a relation holds is canonical — its domain is strictly sorted
// and each of its values is held by some row — and immutable: a write
// installs a new index in place of the old one, so an index once read stays
// valid, and concurrent readers need no lock.
type DiscreteIndex struct {
	// Domain holds the sorted distinct values of the column.
	Domain []string
	// Codes holds one entry per row: Codes[i] is the position of row i's
	// value in Domain, so Domain[Codes[i]] is the row's value.
	Codes []uint32
	// Counts holds one entry per domain value: Counts[c] is the number of
	// rows whose code is c, never 0. It turns predicate counting into an
	// O(domain) sum instead of an O(rows) scan.
	Counts []uint32
}

// N returns the domain size.
func (ix *DiscreteIndex) N() int { return len(ix.Domain) }

// Value returns row i's value.
func (ix *DiscreteIndex) Value(i int) string { return ix.Domain[ix.Codes[i]] }

// NewIndex returns the canonical encoding of the column whose row i holds
// domain[codes[i]]. domain may be in any order, repeat values and hold
// values no row uses: the result keeps the used values, sorted and merged,
// and remaps the codes onto them. Every way of writing a discrete column
// ends here. NewIndex never writes domain or codes; it adopts both when they
// already form a canonical encoding, and the caller must not write them
// afterwards.
func NewIndex(domain []string, codes []uint32) (*DiscreteIndex, error) {
	return canonical(&DiscreteIndex{Domain: domain, Codes: codes})
}

// canonical is NewIndex over ix's Domain and Codes. An ix that is canonical
// already is adopted as it stands, with its Counts filled in — in the
// storage Counts holds when it has room, so a caller that encodes window
// after window can reuse one buffer.
func canonical(ix *DiscreteIndex) (*DiscreteIndex, error) {
	domain, codes := ix.Domain, ix.Codes
	n := uint32(len(domain))
	counts := ix.Counts[:0]
	if cap(counts) < int(n) {
		counts = make([]uint32, n)
	} else {
		counts = counts[:n]
		clear(counts)
	}
	for i, c := range codes {
		if c >= n {
			return nil, fmt.Errorf("out-of-range code %d at row %d (domain size %d)", c, i, n)
		}
		counts[c]++
	}
	canon := true
	for c := range domain {
		if counts[c] == 0 || c > 0 && domain[c-1] >= domain[c] {
			canon = false
			break
		}
	}
	if canon {
		ix.Counts = counts
		return ix, nil
	}
	used := make([]uint32, 0, n)
	for c, k := range counts {
		if k > 0 {
			used = append(used, uint32(c))
		}
	}
	slices.SortFunc(used, func(a, b uint32) int { return strings.Compare(domain[a], domain[b]) })
	remap := make([]uint32, n)
	out := &DiscreteIndex{Domain: make([]string, 0, len(used)), Codes: make([]uint32, len(codes))}
	for _, c := range used {
		if last := len(out.Domain) - 1; last < 0 || out.Domain[last] != domain[c] {
			out.Domain = append(out.Domain, domain[c])
			out.Counts = append(out.Counts, 0)
		}
		remap[c] = uint32(len(out.Domain) - 1)
		out.Counts[remap[c]] += counts[c]
	}
	for i, c := range codes {
		out.Codes[i] = remap[c]
	}
	return out, nil
}

// encode dictionary-encodes a column of strings.
func encode(vals []string) *DiscreteIndex {
	pos := make(map[string]uint32, 64)
	var domain []string
	codes := make([]uint32, len(vals))
	for i, v := range vals {
		c, ok := pos[v]
		if !ok {
			c = uint32(len(domain))
			pos[v] = c
			domain = append(domain, v)
		}
		codes[i] = c
	}
	ix, _ := NewIndex(domain, codes) // every code indexes domain
	return ix
}

// DiscreteIndex returns the encoding of a discrete column. The index is the
// relation's own and must be treated as read-only; it stays valid, and
// describes the column as it was, after any later write, which installs a
// new index instead of changing this one.
func (r *Relation) DiscreteIndex(name string) (*DiscreteIndex, error) {
	return r.lookupDiscrete(name)
}
