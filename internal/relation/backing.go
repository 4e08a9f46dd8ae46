package relation

import "fmt"

// FromBacking builds a relation that adopts the given columns without
// copying. It exists for loaders that already own freshly materialized (or
// memory-mapped) columns — the colstore reader, the collector's report
// batches, the privatized view — where FromColumns' defensive copies would
// double memory and dominate load time.
//
// Every numeric column must be in numeric, and every discrete column in
// coded as its dictionary encoding, each with exactly rows entries. Each
// coded index is checked — strictly sorted domain, one in-range code per
// row — and canonicalized as NewIndex does: an index whose every domain
// value some row holds is adopted, its Counts filled; one with unused
// values is replaced by a narrowed copy.
//
// The caller transfers ownership: the slices must not be resized or mutated
// afterwards.
func FromBacking(schema Schema, rows int, numeric map[string][]float64, coded map[string]*DiscreteIndex) (*Relation, error) {
	if rows < 0 {
		return nil, fmt.Errorf("relation: negative row count %d", rows)
	}
	r := New(schema)
	r.rows = rows
	for _, c := range schema.cols {
		switch c.Kind {
		case Numeric:
			col, ok := numeric[c.Name]
			if !ok {
				return nil, fmt.Errorf("relation: missing numeric column %q", c.Name)
			}
			if len(col) != rows {
				return nil, fmt.Errorf("relation: column %q has %d values, want %d", c.Name, len(col), rows)
			}
			r.numeric[c.Name] = col
		case Discrete:
			ix, ok := coded[c.Name]
			if !ok {
				return nil, fmt.Errorf("relation: missing discrete column %q", c.Name)
			}
			if len(ix.Codes) != rows {
				return nil, fmt.Errorf("relation: index for %q has %d codes, want %d", c.Name, len(ix.Codes), rows)
			}
			for i := 1; i < len(ix.Domain); i++ {
				if ix.Domain[i-1] >= ix.Domain[i] {
					return nil, fmt.Errorf("relation: index for %q has domain not strictly sorted at %d", c.Name, i)
				}
			}
			canon, err := canonical(ix)
			if err != nil {
				return nil, fmt.Errorf("relation: index for %q has %w", c.Name, err)
			}
			r.discrete[c.Name] = canon
		}
	}
	return r, nil
}
