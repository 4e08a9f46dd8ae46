package relation

import "fmt"

// FromBacking builds a relation that adopts the given columns without
// copying. It exists for loaders that already own freshly materialized (or
// memory-mapped) columns — the colstore reader, the collector's report
// batches — where FromColumns' defensive copies would double memory and
// dominate load time.
//
// Every numeric column must be in numeric, and every discrete column in
// discrete (as strings) or in coded (as its dictionary encoding), each with
// exactly rows entries. A coded column stays codes until something asks for
// its strings (see Discrete), so a loader that persists the encoding never
// builds them. Each coded index is checked against the DiscreteIndex
// invariants — strictly sorted domain, one in-range code per row — in one
// pass over the codes that also fills its Counts; the codes themselves are
// the column's values.
//
// The caller transfers ownership: the slices must not be resized or mutated
// afterwards except through the relation API.
func FromBacking(schema Schema, rows int, numeric map[string][]float64, discrete map[string][]string, coded map[string]*DiscreteIndex) (*Relation, error) {
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
			if ix, ok := coded[c.Name]; ok {
				if err := countCodes(c.Name, ix, rows); err != nil {
					return nil, err
				}
				r.discrete[c.Name].ix = ix
				continue
			}
			col, ok := discrete[c.Name]
			if !ok {
				return nil, fmt.Errorf("relation: missing discrete column %q", c.Name)
			}
			if len(col) != rows {
				return nil, fmt.Errorf("relation: column %q has %d values, want %d", c.Name, len(col), rows)
			}
			r.discrete[c.Name].vals = col
		}
	}
	return r, nil
}

// countCodes validates a stored index for a column of rows rows and installs
// its per-code row counts, walking the codes once.
func countCodes(name string, ix *DiscreteIndex, rows int) error {
	if len(ix.Codes) != rows {
		return fmt.Errorf("relation: index for %q has %d codes, want %d", name, len(ix.Codes), rows)
	}
	for i := 1; i < len(ix.Domain); i++ {
		if ix.Domain[i-1] >= ix.Domain[i] {
			return fmt.Errorf("relation: index for %q has domain not strictly sorted at %d", name, i)
		}
	}
	n := uint32(len(ix.Domain))
	counts := make([]uint32, n)
	for i, c := range ix.Codes {
		if c >= n {
			return fmt.Errorf("relation: index for %q has out-of-range code %d at row %d (domain size %d)", name, c, i, n)
		}
		counts[c]++
	}
	ix.Counts = counts
	return nil
}
