package relation

import (
	"fmt"
	"io"
)

// Iterator streams a relation as a sequence of bounded row windows, so
// consumers — the out-of-core privatize pipeline, the streaming cleaners, the
// sufficient-statistics collector — can process arbitrarily large sources
// without ever holding more than one window of rows resident.
//
// Every window shares the iterator's schema. Next returns io.EOF (and a nil
// relation) once the source is exhausted; any other error is terminal. An
// iterator is single-use and not safe for concurrent Next calls.
type Iterator interface {
	// Schema returns the schema every yielded window carries.
	Schema() Schema
	// Next returns the next window of rows, or (nil, io.EOF) at the end.
	Next() (*Relation, error)
}

// Window returns rows [lo, hi) as a relation of their own. Numeric columns
// share the parent's backing slices (capacity-clamped), so a numeric cell
// written through either is written in both. Each discrete column is the slice of the parent's codes,
// canonicalized: it shares the parent's immutable domain and codes when the
// window holds every domain value, and is remapped onto the values it holds
// otherwise. A write to the window installs its own column, never the
// parent's.
func (r *Relation) Window(lo, hi int) (*Relation, error) {
	if lo < 0 || hi < lo || hi > r.rows {
		return nil, fmt.Errorf("relation: window [%d,%d) out of range [0,%d]", lo, hi, r.rows)
	}
	out := &Relation{
		schema:   r.schema,
		numeric:  make(map[string][]float64, len(r.numeric)),
		discrete: make(map[string]*DiscreteIndex, len(r.discrete)),
		rows:     hi - lo,
	}
	for name, col := range r.numeric {
		out.numeric[name] = col[lo:hi:hi]
	}
	for name, ix := range r.discrete {
		wix, err := NewIndex(ix.Domain, ix.Codes[lo:hi:hi])
		if err != nil {
			return nil, err
		}
		out.discrete[name] = wix
	}
	return out, nil
}

// SliceIterator adapts a resident relation to the Iterator interface by
// yielding consecutive windows (Window) of at most `window` rows. The tests
// use it to drive the windowed consumers (the cleaning engine, the chunk
// pipeline) with a resident relation cut to any window size.
type SliceIterator struct {
	rel    *Relation
	window int
	pos    int
}

// NewSliceIterator builds an iterator over rel with the given window size
// (DefaultWindow if <= 0).
func NewSliceIterator(rel *Relation, window int) *SliceIterator {
	if window <= 0 {
		window = DefaultWindow
	}
	return &SliceIterator{rel: rel, window: window}
}

// DefaultWindow is the window size an iterator uses when the caller does
// not choose one.
const DefaultWindow = 4096

// Schema returns the underlying relation's schema.
func (it *SliceIterator) Schema() Schema { return it.rel.Schema() }

// Next returns the next window, or io.EOF after the last row.
func (it *SliceIterator) Next() (*Relation, error) {
	if it.pos >= it.rel.NumRows() {
		return nil, io.EOF
	}
	hi := it.pos + it.window
	if hi > it.rel.NumRows() {
		hi = it.rel.NumRows()
	}
	w, err := it.rel.Window(it.pos, hi)
	if err != nil {
		return nil, err
	}
	it.pos = hi
	return w, nil
}
