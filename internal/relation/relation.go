// Package relation implements the column-oriented relation substrate that
// every other PrivateClean component operates on.
//
// A Relation has a fixed Schema of numerical attributes (float64) and
// discrete attributes (string, any data type rendered as a string). This
// mirrors the data model of Section 3.1 of the paper: A = {a_1..a_l}
// numerical, D = {d_1..d_m} discrete, with all cleaning confined to the
// discrete attributes.
//
// A discrete column is held as its strings, its dictionary encoding
// (DiscreteIndex: sorted domain plus one code per row), or both, and the
// missing form is built the first time something asks for it. The
// estimators read only the encoding, so a view loaded as codes (colstore)
// answers queries without ever building its strings.
//
// Missing values are represented by relation.Null for discrete attributes and
// NaN for numerical attributes.
package relation

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// Null is the canonical missing-value sentinel for discrete attributes.
const Null = "NULL"

// Kind distinguishes numerical from discrete attributes.
type Kind int

const (
	// Numeric attributes hold float64 values and receive Laplace noise
	// under GRR.
	Numeric Kind = iota
	// Discrete attributes hold string values and receive randomized
	// response under GRR.
	Discrete
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Discrete:
		return "discrete"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of uniquely named columns.
type Schema struct {
	cols  []Column
	index map[string]int
}

// NewSchema builds a schema from the given columns. Column names must be
// non-empty and unique.
func NewSchema(cols ...Column) (Schema, error) {
	s := Schema{cols: make([]Column, len(cols)), index: make(map[string]int, len(cols))}
	copy(s.cols, cols)
	for i, c := range cols {
		if c.Name == "" {
			return Schema{}, fmt.Errorf("relation: column %d has empty name", i)
		}
		if _, dup := s.index[c.Name]; dup {
			return Schema{}, fmt.Errorf("relation: duplicate column %q", c.Name)
		}
		s.index[c.Name] = i
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error. Intended for tests and
// static schemas.
func MustSchema(cols ...Column) Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Columns returns a copy of the schema's columns in order.
func (s Schema) Columns() []Column {
	out := make([]Column, len(s.cols))
	copy(out, s.cols)
	return out
}

// Len returns the number of columns.
func (s Schema) Len() int { return len(s.cols) }

// Has reports whether the schema contains a column with the given name.
func (s Schema) Has(name string) bool {
	_, ok := s.index[name]
	return ok
}

// NumericNames returns the names of all numeric columns in schema order.
func (s Schema) NumericNames() []string { return s.namesOf(Numeric) }

// DiscreteNames returns the names of all discrete columns in schema order.
func (s Schema) DiscreteNames() []string { return s.namesOf(Discrete) }

func (s Schema) namesOf(k Kind) []string {
	var out []string
	for _, c := range s.cols {
		if c.Kind == k {
			out = append(out, c.Name)
		}
	}
	return out
}

// String renders the schema as "name:kind, ...".
func (s Schema) String() string {
	parts := make([]string, len(s.cols))
	for i, c := range s.cols {
		parts[i] = c.Name + ":" + c.Kind.String()
	}
	return strings.Join(parts, ", ")
}

// Relation is a column-oriented table. The zero value is not usable; build
// relations with New or a Builder.
type Relation struct {
	schema   Schema
	numeric  map[string][]float64
	discrete map[string]*discreteCol
	rows     int
	// dmu guards every discreteCol's fields, so concurrent readers — the
	// query server's request handlers — can share one relation, including
	// the first read that builds a column's strings or index.
	dmu sync.Mutex
}

// New creates an empty relation (zero rows) with the given schema.
func New(schema Schema) *Relation {
	r := &Relation{
		schema:   schema,
		numeric:  make(map[string][]float64),
		discrete: make(map[string]*discreteCol),
	}
	for _, c := range schema.cols {
		switch c.Kind {
		case Numeric:
			r.numeric[c.Name] = nil
		case Discrete:
			r.discrete[c.Name] = &discreteCol{}
		}
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() Schema { return r.schema }

// NumRows returns the number of rows.
func (r *Relation) NumRows() int { return r.rows }

// Numeric returns the backing slice for a numeric column. The caller must not
// resize it; mutating elements mutates the relation.
func (r *Relation) Numeric(name string) ([]float64, error) {
	col, ok := r.numeric[name]
	if !ok {
		if _, isDisc := r.discrete[name]; isDisc {
			return nil, fmt.Errorf("relation: column %q is discrete, not numeric", name)
		}
		return nil, fmt.Errorf("relation: no column %q", name)
	}
	return col, nil
}

// Discrete returns the backing slice for a discrete column, building it
// from the column's codes the first time a column held only as codes is
// read. The caller must not resize it; mutating elements mutates the
// relation (and requires InvalidateIndex, see DiscreteIndex).
func (r *Relation) Discrete(name string) ([]string, error) {
	dc, err := r.lookupDiscrete(name)
	if err != nil {
		return nil, err
	}
	r.dmu.Lock()
	defer r.dmu.Unlock()
	return dc.strings(), nil
}

func (r *Relation) lookupDiscrete(name string) (*discreteCol, error) {
	dc, ok := r.discrete[name]
	if !ok {
		if _, isNum := r.numeric[name]; isNum {
			return nil, fmt.Errorf("relation: column %q is numeric, not discrete", name)
		}
		return nil, fmt.Errorf("relation: no column %q", name)
	}
	return dc, nil
}

// MustNumeric is like Numeric but panics on error.
func (r *Relation) MustNumeric(name string) []float64 {
	col, err := r.Numeric(name)
	if err != nil {
		panic(err)
	}
	return col
}

// MustDiscrete is like Discrete but panics on error.
func (r *Relation) MustDiscrete(name string) []string {
	col, err := r.Discrete(name)
	if err != nil {
		panic(err)
	}
	return col
}

// Row materializes one row as name->value maps. Primarily for tests, CLI
// display, and row-level user-defined functions.
type Row struct {
	Numeric  map[string]float64
	Discrete map[string]string
}

// Row returns row i of the relation.
func (r *Relation) Row(i int) (Row, error) {
	if i < 0 || i >= r.rows {
		return Row{}, fmt.Errorf("relation: row %d out of range [0,%d)", i, r.rows)
	}
	row := Row{
		Numeric:  make(map[string]float64, len(r.numeric)),
		Discrete: make(map[string]string, len(r.discrete)),
	}
	for name, col := range r.numeric {
		row.Numeric[name] = col[i]
	}
	r.dmu.Lock()
	defer r.dmu.Unlock()
	for name, dc := range r.discrete {
		row.Discrete[name] = dc.strings()[i]
	}
	return row, nil
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	out := &Relation{
		schema:   r.schema,
		numeric:  make(map[string][]float64, len(r.numeric)),
		discrete: make(map[string]*discreteCol, len(r.discrete)),
		rows:     r.rows,
	}
	for name, col := range r.numeric {
		cp := make([]float64, len(col))
		copy(cp, col)
		out.numeric[name] = cp
	}
	// A clone's column contents are identical, so the immutable encodings
	// carry over (a column held only as codes stays so); either relation
	// invalidates independently.
	r.dmu.Lock()
	for name, dc := range r.discrete {
		out.discrete[name] = &discreteCol{vals: slices.Clone(dc.vals), ix: dc.ix}
	}
	r.dmu.Unlock()
	return out
}

// Domain returns the sorted distinct values of a discrete column
// (Domain(d_i) in the paper). The distinct set is served from the cached
// dictionary encoding; the returned slice is a copy the caller may keep.
func (r *Relation) Domain(name string) ([]string, error) {
	ix, err := r.DiscreteIndex(name)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(ix.Domain))
	copy(out, ix.Domain)
	return out, nil
}

// DomainSize returns the number of distinct values in a discrete column.
func (r *Relation) DomainSize(name string) (int, error) {
	ix, err := r.DiscreteIndex(name)
	if err != nil {
		return 0, err
	}
	return ix.N(), nil
}

// ValueCounts returns the multiplicity of each distinct value in a discrete
// column, read from the index's per-code counts in O(domain).
func (r *Relation) ValueCounts(name string) (map[string]int, error) {
	ix, err := r.DiscreteIndex(name)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int, ix.N())
	for c, n := range ix.Counts {
		counts[ix.Domain[c]] = int(n)
	}
	return counts, nil
}

// SetDiscrete overwrites one cell of a discrete column.
func (r *Relation) SetDiscrete(name string, i int, v string) error {
	col, err := r.Discrete(name)
	if err != nil {
		return err
	}
	if i < 0 || i >= r.rows {
		return fmt.Errorf("relation: row %d out of range [0,%d)", i, r.rows)
	}
	col[i] = v
	r.InvalidateIndex(name)
	return nil
}

// MapDiscrete replaces every value of a discrete column with f(value). This
// is the raw primitive behind Transform/Merge cleaners; most callers should
// go through the cleaning package so provenance is recorded.
func (r *Relation) MapDiscrete(name string, f func(string) string) error {
	col, err := r.Discrete(name)
	if err != nil {
		return err
	}
	for i, v := range col {
		col[i] = f(v)
	}
	r.InvalidateIndex(name)
	return nil
}

// AddDiscreteColumn appends a new discrete column. The values slice must have
// exactly NumRows entries; it is copied.
func (r *Relation) AddDiscreteColumn(name string, values []string) error {
	if r.schema.Has(name) {
		return fmt.Errorf("relation: column %q already exists", name)
	}
	if len(values) != r.rows {
		return fmt.Errorf("relation: column %q has %d values, relation has %d rows", name, len(values), r.rows)
	}
	cp := make([]string, len(values))
	copy(cp, values)
	r.schema.cols = append(r.schema.cols, Column{Name: name, Kind: Discrete})
	if r.schema.index == nil {
		r.schema.index = make(map[string]int)
	} else {
		// The index map may be shared with clones of the pre-extension
		// schema; copy-on-write before inserting.
		idx := make(map[string]int, len(r.schema.index)+1)
		for k, v := range r.schema.index {
			idx[k] = v
		}
		r.schema.index = idx
	}
	r.schema.index[name] = len(r.schema.cols) - 1
	r.discrete[name] = &discreteCol{vals: cp}
	return nil
}

// Equal reports whether two relations have identical schemas and cell values.
// NaN numeric cells compare equal to NaN (so missing values round-trip).
func (r *Relation) Equal(o *Relation) bool {
	if r.rows != o.rows || len(r.schema.cols) != len(o.schema.cols) {
		return false
	}
	for i, c := range r.schema.cols {
		if o.schema.cols[i] != c {
			return false
		}
	}
	for name, col := range r.numeric {
		oc, ok := o.numeric[name]
		if !ok {
			return false
		}
		for i := range col {
			if col[i] != oc[i] && !(math.IsNaN(col[i]) && math.IsNaN(oc[i])) {
				return false
			}
		}
	}
	for name := range r.discrete {
		oc, err := o.Discrete(name)
		if err != nil || !slices.Equal(r.MustDiscrete(name), oc) {
			return false
		}
	}
	return true
}

// String renders a compact description, not the full contents.
func (r *Relation) String() string {
	return fmt.Sprintf("Relation(%d rows; %s)", r.rows, r.schema.String())
}

// Builder assembles a relation row by row.
type Builder struct {
	rel *Relation
	err error
}

// NewBuilder creates a builder for the given schema.
func NewBuilder(schema Schema) *Builder {
	return &Builder{rel: New(schema)}
}

// Append adds one row. Missing numeric entries become NaN and missing
// discrete entries become Null; unknown names are an error surfaced by
// Relation().
func (b *Builder) Append(numeric map[string]float64, discrete map[string]string) *Builder {
	if b.err != nil {
		return b
	}
	for name := range numeric {
		if _, ok := b.rel.numeric[name]; !ok {
			b.err = fmt.Errorf("relation: append: unknown numeric column %q", name)
			return b
		}
	}
	for name := range discrete {
		if _, ok := b.rel.discrete[name]; !ok {
			b.err = fmt.Errorf("relation: append: unknown discrete column %q", name)
			return b
		}
	}
	for name := range b.rel.numeric {
		v, ok := numeric[name]
		if !ok {
			v = math.NaN()
		}
		b.rel.numeric[name] = append(b.rel.numeric[name], v)
	}
	for name, dc := range b.rel.discrete {
		v, ok := discrete[name]
		if !ok {
			v = Null
		}
		dc.vals = append(dc.vals, v)
	}
	b.rel.rows++
	return b
}

// Relation finalizes the builder.
func (b *Builder) Relation() (*Relation, error) {
	if b.err != nil {
		return nil, b.err
	}
	return b.rel, nil
}

// FromColumns builds a relation directly from column slices. All slices must
// have the same length. Slices are copied.
func FromColumns(schema Schema, numeric map[string][]float64, discrete map[string][]string) (*Relation, error) {
	r := New(schema)
	n := -1
	check := func(name string, l int) error {
		if n == -1 {
			n = l
		}
		if l != n {
			return fmt.Errorf("relation: column %q has %d values, want %d", name, l, n)
		}
		return nil
	}
	for _, c := range schema.cols {
		switch c.Kind {
		case Numeric:
			col, ok := numeric[c.Name]
			if !ok {
				return nil, fmt.Errorf("relation: missing numeric column %q", c.Name)
			}
			if err := check(c.Name, len(col)); err != nil {
				return nil, err
			}
			cp := make([]float64, len(col))
			copy(cp, col)
			r.numeric[c.Name] = cp
		case Discrete:
			col, ok := discrete[c.Name]
			if !ok {
				return nil, fmt.Errorf("relation: missing discrete column %q", c.Name)
			}
			if err := check(c.Name, len(col)); err != nil {
				return nil, err
			}
			cp := make([]string, len(col))
			copy(cp, col)
			r.discrete[c.Name].vals = cp
		}
	}
	if n == -1 {
		n = 0
	}
	r.rows = n
	return r, nil
}
