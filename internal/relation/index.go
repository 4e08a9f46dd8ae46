package relation

import "sort"

// DiscreteIndex is the dictionary encoding of one discrete column: the sorted
// distinct values (the column's Domain) plus one uint32 code per row giving
// the value's position in that domain. Hot paths — randomized response, the
// estimator predicate scans, value counting — operate over the codes instead
// of repeated string compares and map lookups.
//
// An index is immutable once built. The relation keeps it per column and
// drops it whenever the column is written through the relation API
// (SetDiscrete, MapDiscrete); every write first builds the column's strings,
// so a column held only as its index keeps its values. Code that mutates a
// column's backing slice directly — the cleaners that rewrite rows in place —
// must call InvalidateIndex afterwards.
type DiscreteIndex struct {
	// Domain holds the sorted distinct values of the column.
	Domain []string
	// Codes holds one entry per row: Codes[i] is the position of row i's
	// value in Domain, so Domain[Codes[i]] is the row's value.
	Codes []uint32
	// Counts holds one entry per domain value: Counts[c] is the number of
	// rows whose code is c. buildIndex and FromBacking both fill it,
	// turning predicate counting into an O(domain) sum instead of an O(rows)
	// scan, so every index Relation.DiscreteIndex returns carries it. A
	// hand-assembled index may leave it nil.
	Counts []uint32
}

// N returns the domain size.
func (ix *DiscreteIndex) N() int { return len(ix.Domain) }

// discreteCol holds one discrete column as its strings, its index, or both;
// whichever is missing is built from the other on first use, under
// Relation.dmu.
type discreteCol struct {
	vals []string       // nil while the column is held only as codes
	ix   *DiscreteIndex // nil until built; dropped when the column is written
}

// strings returns the column's values, filling Domain[Codes[i]] the first
// time a column held only as codes is read. The caller holds dmu.
func (dc *discreteCol) strings() []string {
	if dc.vals == nil && dc.ix != nil {
		dc.vals = make([]string, len(dc.ix.Codes))
		for i, c := range dc.ix.Codes {
			dc.vals[i] = dc.ix.Domain[c]
		}
	}
	return dc.vals
}

// buildIndex dictionary-encodes one column.
func buildIndex(col []string) *DiscreteIndex {
	pos := make(map[string]uint32, 64)
	domain := make([]string, 0, 64)
	codes := make([]uint32, len(col))
	for i, v := range col {
		c, ok := pos[v]
		if !ok {
			c = uint32(len(domain))
			pos[v] = c
			domain = append(domain, v)
		}
		codes[i] = c
	}
	// Sort the domain and remap first-seen codes to sorted ranks.
	rank := make([]uint32, len(domain))
	order := make([]int, len(domain))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return domain[order[a]] < domain[order[b]] })
	sorted := make([]string, len(domain))
	for r, o := range order {
		sorted[r] = domain[o]
		rank[o] = uint32(r)
	}
	counts := make([]uint32, len(domain))
	for i, c := range codes {
		codes[i] = rank[c]
		counts[rank[c]]++
	}
	return &DiscreteIndex{Domain: sorted, Codes: codes, Counts: counts}
}

// DiscreteIndex returns the dictionary encoding of a discrete column,
// building it from the strings on first use; a column held only as codes
// already has it and never builds its strings here. The returned index must
// be treated as read-only; it stays valid even if the column is later
// modified (the entry is replaced, not mutated).
//
// The entry is guarded by a mutex, so any number of goroutines may call
// DiscreteIndex (and the Domain/DomainSize/ValueCounts readers built on it)
// and Discrete concurrently — the property the query server depends on.
// Column *writes* remain single-threaded: the relation is read-mostly, not
// a concurrent table.
func (r *Relation) DiscreteIndex(name string) (*DiscreteIndex, error) {
	dc, err := r.lookupDiscrete(name)
	if err != nil {
		return nil, err
	}
	r.dmu.Lock()
	defer r.dmu.Unlock()
	if dc.ix == nil {
		dc.ix = buildIndex(dc.vals)
	} else if dc.vals != nil {
		debugCheckIndex(name, dc.ix, dc.vals)
	}
	return dc.ix, nil
}

// InvalidateIndex drops the dictionary encoding of a column, building its
// strings first if it is held only as codes. Callers that write a discrete
// column through its backing slice (rather than the SetDiscrete/MapDiscrete
// API) must invalidate before the next read of Domain, DomainSize,
// ValueCounts, or DiscreteIndex. Invalidating a column with no index (or a
// numeric/unknown column) is a no-op.
func (r *Relation) InvalidateIndex(name string) {
	dc, ok := r.discrete[name]
	if !ok {
		return
	}
	r.dmu.Lock()
	defer r.dmu.Unlock()
	dc.strings() // the index may be the column's only copy of its values
	dc.ix = nil
}
