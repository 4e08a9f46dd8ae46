package relation

import "fmt"

// StaleIndexError reports a cached DiscreteIndex that no longer agrees with
// its column — the failure mode of a cleaner that rewrites the backing slice
// in place and forgets InvalidateIndex.
type StaleIndexError struct {
	Column string
	Detail string
}

func (e *StaleIndexError) Error() string {
	return fmt.Sprintf("relation: stale index for column %q: %s", e.Column, e.Detail)
}

// CheckIndex verifies that the dictionary encoding of a column (if any)
// still matches the column's strings. It returns nil when the column lacks
// either form — one held only as codes is its own source of truth — or the
// two agree, and a *StaleIndexError otherwise.
//
// This is the runtime half of the missed-invalidation defense: cleaners that
// mutate backing slices directly must call InvalidateIndex, and builds tagged
// `pcdebug` assert consistency on every cache hit via this check.
func (r *Relation) CheckIndex(name string) error {
	dc, err := r.lookupDiscrete(name)
	if err != nil {
		return err
	}
	r.dmu.Lock()
	defer r.dmu.Unlock()
	if dc.ix == nil || dc.vals == nil {
		return nil
	}
	return checkIndexAgainst(name, dc.ix, dc.vals)
}

// checkIndexAgainst verifies one index/column pair: code vector length,
// sorted unique domain, every code in range and decoding to the row's value,
// and every domain value actually used by some row (the domain is the
// distinct set, so an unused value means the column shrank under the index).
func checkIndexAgainst(name string, ix *DiscreteIndex, col []string) error {
	stale := func(format string, args ...any) error {
		return &StaleIndexError{Column: name, Detail: fmt.Sprintf(format, args...)}
	}
	if len(ix.Codes) != len(col) {
		return stale("%d codes, %d rows", len(ix.Codes), len(col))
	}
	for i := 1; i < len(ix.Domain); i++ {
		if ix.Domain[i-1] >= ix.Domain[i] {
			return stale("domain not strictly sorted at %d", i)
		}
	}
	n := uint32(len(ix.Domain))
	counts := make([]uint32, n)
	for i, c := range ix.Codes {
		if c >= n {
			return stale("row %d has code %d, domain size %d", i, c, n)
		}
		if ix.Domain[c] != col[i] {
			return stale("row %d decodes to %q, column holds %q", i, ix.Domain[c], col[i])
		}
		counts[c]++
	}
	if ix.Counts != nil && len(ix.Counts) != int(n) {
		return stale("%d counts for %d domain values", len(ix.Counts), n)
	}
	for c, k := range counts {
		if k == 0 {
			return stale("domain value %q not present in column", ix.Domain[c])
		}
		if ix.Counts != nil && ix.Counts[c] != k {
			return stale("domain value %q has %d rows, Counts claims %d", ix.Domain[c], k, ix.Counts[c])
		}
	}
	return nil
}
