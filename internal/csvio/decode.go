package csvio

import (
	"math"
	"strings"

	"privateclean/internal/relation"
)

// rowDecoder turns kept CSV records into columns under resolved kinds. It is
// the one place a cell becomes a value: the second scan of every load (scan,
// behind ReadWithReport and ProfileFile) and ChunkIterator.Next decode
// through it, so the loaders validate, default and encode cells alike by
// construction. An empty cell decodes to NaN (numeric) or relation.Null
// (discrete). A numeric cell is kept as its float, a discrete one as its code
// in the column's dictionary, which copies a value's string only the first
// time the column sees it.
type rowDecoder struct {
	cols []relation.Column
	// Per column, the slots of its kind: nums for a numeric column; codes,
	// dicts and domains for a discrete one, where dicts maps domains[k] to k.
	nums    [][]float64
	codes   [][]uint32
	dicts   []map[string]uint32
	domains [][]string
	vals    []float64 // the numeric cells of the row being decoded
	rows    int       // rows decoded, truncated ones included
}

// newRowDecoder returns a decoder whose buffers have room for capacity rows.
func newRowDecoder(cols []relation.Column, capacity int) *rowDecoder {
	n := len(cols)
	d := &rowDecoder{cols: cols, nums: make([][]float64, n), codes: make([][]uint32, n),
		dicts: make([]map[string]uint32, n), domains: make([][]string, n), vals: make([]float64, n)}
	for c, col := range cols {
		if col.Kind == relation.Numeric {
			d.nums[c] = make([]float64, 0, capacity)
		} else {
			d.codes[c] = make([]uint32, 0, capacity)
			d.dicts[c] = make(map[string]uint32)
		}
	}
	return d
}

// decode appends rec, a record of the header's arity, as one row. When a
// numeric cell does not parse or is ±Inf, it appends nothing and returns the
// row policy's reason for the first such cell in header order.
func (d *rowDecoder) decode(rec []string) (bad string) {
	for c, cell := range rec {
		if d.cols[c].Kind != relation.Numeric {
			continue
		}
		d.vals[c] = math.NaN()
		if cell != "" {
			if d.vals[c], bad = parseNumeric(d.cols[c].Name, cell); bad != "" {
				return bad
			}
		}
	}
	for c, cell := range rec {
		if d.cols[c].Kind == relation.Numeric {
			d.nums[c] = append(d.nums[c], d.vals[c])
			continue
		}
		if cell == "" {
			cell = relation.Null
		}
		code, ok := d.dicts[c][cell]
		if !ok {
			code, cell = uint32(len(d.domains[c])), strings.Clone(cell)
			d.dicts[c][cell] = code
			d.domains[c] = append(d.domains[c], cell)
		}
		d.codes[c] = append(d.codes[c], code)
	}
	d.rows++
	return ""
}

// truncate empties the column buffers in place, keeping the dictionaries
// and the row count; build must not follow it.
func (d *rowDecoder) truncate() {
	for c := range d.cols {
		d.nums[c], d.codes[c] = d.nums[c][:0], d.codes[c][:0]
	}
}

// build builds the decoded rows as a relation that adopts the buffers; the
// decoder must not be used afterwards.
func (d *rowDecoder) build(schema relation.Schema) (*relation.Relation, error) {
	numeric := make(map[string][]float64)
	coded := make(map[string]*relation.DiscreteIndex)
	for c, col := range d.cols {
		if col.Kind == relation.Numeric {
			numeric[col.Name] = d.nums[c]
			continue
		}
		coded[col.Name], _ = relation.NewIndex(d.domains[c], d.codes[c]) // every code indexes the domain
	}
	return relation.FromBacking(schema, d.rows, numeric, coded)
}
