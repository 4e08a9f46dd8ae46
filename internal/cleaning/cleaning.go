// Package cleaning implements PrivateClean's data cleaning model
// (Section 3.2.1 of the paper): deterministic user-defined local cleaners
// over the discrete attributes of a relation, expressible as compositions of
// three primitive operations:
//
//   - Transform(g_i): replace each value of a projection with C(v[g_i]);
//   - Merge(g_i, Domain(g_i)): replace each value with another value of the
//     attribute's domain chosen by C(v[g_i], Domain(g_i));
//   - Extract(g_i): create a new discrete attribute from C(v[g_i]).
//
// There is one cleaning engine (stream.go): every Op compiles once into a
// step that rewrites windows of rows, each rewritten column installed whole
// in its window. StreamApply runs it over windows it reopens once per pass,
// Apply over the resident relation as its one window.
//
// When a Context carries a provenance store, finish records the dirty-to-
// clean value mapping so the estimators can recover the original selectivity
// (Sections 6 and 7). A per-value function records deterministic (fork-free)
// edges; a row-level rewrite records weighted edges from transition counts.
//
// The same Ops can run without provenance (Context.Prov == nil), which is
// how the experiment harness produces the hypothetically cleaned non-private
// relation R_clean = C(R) that defines ground truth.
package cleaning

import (
	"fmt"
	"io"
	"sort"
	"time"

	"privateclean/internal/faults"
	"privateclean/internal/privacy"
	"privateclean/internal/provenance"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

// Context is the environment a cleaner runs in. Apply rewrites Rel's columns.
// Prov and Meta are optional: when both are set, provenance is recorded
// against the dirty domains released in Meta.
type Context struct {
	Rel *relation.Relation
	// Domains are StreamApply's dirty domains of its input's discrete
	// columns (csvio.Profile.Domains), for an attribute Meta lacks; Apply
	// reads them from Rel.
	Domains map[string][]string
	Prov    *provenance.Store
	Meta    *privacy.ViewMeta
	// Tel supplies telemetry sinks (nil falls back to telemetry.Default());
	// Span, if set, parents the spans the engine records.
	Tel  *telemetry.Set
	Span *telemetry.Span
}

// Op is one local cleaner.
type Op interface {
	// Name identifies the cleaner for error messages and logs.
	Name() string
	// compile turns the op into the step the engine runs. It sees no data:
	// an op that needs a summary of the input sets step.observe.
	compile(ctx *Context) (*step, error)
}

// step is one compiled op. apply rewrites one window (tally false:
// only to feed a later step's summary, so transitions go uncounted); finish
// evolves the provenance once, after every window has been applied. reads
// names the attributes whose graphs finish evolves. A global step sets
// observe instead of apply: the engine folds every window, as the earlier
// steps leave it, into the op's summary, then build compiles the step that
// rewrites the windows from it. wall accumulates the op's time.
type step struct {
	op      Op
	reads   []string
	observe func(win *relation.Relation) error
	build   func() *step
	apply   func(win *relation.Relation, tally bool) error
	finish  func(ctx *Context) error
	wall    time.Duration
}

// Apply runs a composition of cleaners C = C_1 ∘ C_2 ∘ ... ∘ C_k in order
// over ctx.Rel as one window, so the write pass rewrites ctx.Rel itself and
// the columns an Extract adds land in it.
func Apply(ctx *Context, ops ...Op) error {
	open := func() (relation.Iterator, error) { return &whole{rel: ctx.Rel}, nil }
	_, err := run(ctx, open, func(*relation.Relation, bool) error { return nil }, ops)
	return err
}

// whole yields one relation as its only window.
type whole struct {
	rel  *relation.Relation
	done bool
}

func (w *whole) Schema() relation.Schema { return w.rel.Schema() }

func (w *whole) Next() (*relation.Relation, error) {
	if w.done {
		return nil, io.EOF
	}
	w.done = true
	return w.rel, nil
}

func (ctx *Context) telemetry() *telemetry.Set {
	if ctx.Tel == nil {
		return telemetry.Default()
	}
	return ctx.Tel
}

// observe records one op's count and wall time.
func observe(tel *telemetry.Set, op Op, wall time.Duration) {
	tel.Metrics.Counter("privateclean_clean_ops_total", "Cleaning operations applied, by kind.",
		telemetry.L("kind", telemetry.OpKind(op.Name()))).Inc()
	tel.Metrics.Histogram("privateclean_clean_op_seconds", "Wall time per cleaning operation.",
		telemetry.DurationBuckets).Observe(wall.Seconds())
}

// failed logs an op failure and classifies it: op failures stem from the op
// spec or the data it targets, so the CLI exits with the bad-input code.
func failed(tel *telemetry.Set, op Op, err error) error {
	tel.Log.Error("cleaning op failed", "kind", telemetry.OpKind(op.Name()), telemetry.ErrAttr(err))
	return faults.Wrap(faults.ErrBadInput, fmt.Errorf("cleaning: %s: %w", op.Name(), err))
}

// graphFor returns (and lazily creates) the provenance graph for attr, or
// nil when the context records no provenance. A new graph is the identity
// over the attribute's dirty domain: the released randomization domain in
// Meta (the domain GRR drew from, hence a superset of the attribute's
// current values), else the input's domain before the write pass: Rel's
// (the engine creates Apply's graphs before the write pass rewrites Rel),
// or StreamApply's Domains.
func (ctx *Context) graphFor(attr string) (*provenance.Graph, error) {
	if ctx.Prov == nil {
		return nil, nil
	}
	if g, ok := ctx.Prov.Graph(attr); ok {
		return g, nil
	}
	if ctx.Meta != nil {
		if m, err := ctx.Meta.DiscreteFor(attr); err == nil {
			return ctx.Prov.Ensure(attr, m.Domain), nil
		}
	}
	if ctx.Rel != nil {
		dom, err := ctx.Rel.Domain(attr)
		if err != nil {
			return nil, err
		}
		return ctx.Prov.Ensure(attr, dom), nil
	}
	dom, ok := ctx.Domains[attr]
	if !ok {
		return nil, fmt.Errorf("no dirty domain for attribute %q: it is in neither the view metadata nor the input's discrete domains", attr)
	}
	return ctx.Prov.Ensure(attr, dom), nil
}

// valueStep compiles a deterministic per-value rewrite of attr. f must be
// pure: it rewrites every window's dictionary (relation.MapDomain) and is
// replayed once against the graph, whose edges stay fork-free.
func valueStep(attr string, f func(string) string) *step {
	return &step{
		reads: []string{attr},
		apply: func(win *relation.Relation, _ bool) error { return win.MapDomain(attr, f) },
		finish: func(ctx *Context) error {
			g, err := ctx.graphFor(attr)
			if g != nil {
				g.ApplyDeterministic(f)
			}
			return err
		},
	}
}

// transitions counts the row-level rewrites m -> m' of one attribute,
// summed across windows; a nil transitions counts nothing.
type transitions map[string]map[string]int

func (t transitions) add(from, to string) {
	if t == nil {
		return
	}
	m := t[from]
	if m == nil {
		m = make(map[string]int)
		t[from] = m
	}
	m[to]++
}

// rowStep compiles a row-level rewrite of attrs: rows prepares, per window,
// the function that gets row r's values of attrs in a scratch slice it may
// overwrite and returns their replacements. Rows sharing a value may
// diverge, so provenance comes from transition counts (summed over windows)
// that Graph.ApplyTransitions turns into weighted edges (Section 7.1). Each
// rewritten column is re-encoded and installed whole once the window is done.
func rowStep(ctx *Context, attrs []string, rows func(win *relation.Relation) (func(r int, vals []string) []string, error)) *step {
	trans := make([]transitions, len(attrs))
	if ctx.Prov != nil {
		for i := range trans {
			trans[i] = transitions{}
		}
	}
	return &step{
		reads: attrs,
		apply: func(win *relation.Relation, tally bool) error {
			cols, err := discreteCols(win, attrs)
			if err != nil {
				return err
			}
			next, err := rows(win)
			if err != nil {
				return err
			}
			outs := make([][]string, len(attrs))
			for i := range outs {
				outs[i] = make([]string, win.NumRows())
			}
			buf := make([]string, len(attrs))
			for r := range win.NumRows() {
				for i, ix := range cols {
					buf[i] = ix.Value(r)
				}
				out := next(r, buf)
				if len(out) != len(attrs) {
					return fmt.Errorf("row transform returned %d values, want %d", len(out), len(attrs))
				}
				for i, ix := range cols {
					if tally {
						trans[i].add(ix.Value(r), out[i])
					}
					outs[i][r] = out[i]
				}
			}
			for i, a := range attrs {
				if err := win.SetDiscrete(a, outs[i]); err != nil {
					return err
				}
			}
			return nil
		},
		finish: func(ctx *Context) error {
			for i, a := range attrs {
				g, err := ctx.graphFor(a)
				if err != nil {
					return err
				}
				if g != nil {
					g.ApplyTransitions(trans[i])
				}
			}
			return nil
		},
	}
}

// valueCounts, the summary Merge and MDRepair compile from, counts one
// attribute's values over every window: relation.ValueCounts of the whole
// input, whose sorted keys are relation.Domain.
type valueCounts map[string]int

// observer returns the step.observe that folds attr's value counts into c.
func (c valueCounts) observer(attr string) func(*relation.Relation) error {
	return func(win *relation.Relation) error {
		ix, err := win.DiscreteIndex(attr)
		if err != nil {
			return err
		}
		for code, v := range ix.Domain {
			c[v] += int(ix.Counts[code])
		}
		return nil
	}
}

// sorted returns the counted values in lexicographic order.
func (c valueCounts) sorted() []string {
	values := make([]string, 0, len(c))
	for v := range c {
		values = append(values, v)
	}
	sort.Strings(values)
	return values
}

// Transform replaces every value of a single discrete attribute with F(v).
// F must be deterministic (Section 3.2.1); the induced provenance edges are
// fork-free.
type Transform struct {
	Attr  string
	Label string // optional human-readable label
	F     func(string) string
}

// Name implements Op.
func (t Transform) Name() string {
	if t.Label != "" {
		return fmt.Sprintf("transform(%s:%s)", t.Attr, t.Label)
	}
	return fmt.Sprintf("transform(%s)", t.Attr)
}

func (t Transform) compile(*Context) (*step, error) {
	if t.F == nil {
		return nil, fmt.Errorf("nil transform function")
	}
	return valueStep(t.Attr, t.F), nil
}

// Merge replaces every value of a discrete attribute with
// F(v, Domain(attr)), where the domain is the attribute's current distinct
// values. This is the paper's Merge(g_i, Domain(g_i)) operation; the choice
// must be deterministic in v.
type Merge struct {
	Attr  string
	Label string
	F     func(v string, domain []string) string
}

// Name implements Op.
func (m Merge) Name() string {
	if m.Label != "" {
		return fmt.Sprintf("merge(%s:%s)", m.Attr, m.Label)
	}
	return fmt.Sprintf("merge(%s)", m.Attr)
}

func (m Merge) compile(*Context) (*step, error) {
	if m.F == nil {
		return nil, fmt.Errorf("nil merge function")
	}
	counts := valueCounts{}
	return &step{
		reads:   []string{m.Attr},
		observe: counts.observer(m.Attr),
		build: func() *step {
			domain := counts.sorted()
			return valueStep(m.Attr, func(v string) string { return m.F(v, domain) })
		},
	}, nil
}

// FindReplace rewrites one value of a discrete attribute to another
// (Example 1 in the paper: "Electrical Engineering and Computer Sciences ->
// EECS"). It is a special case of Merge.
type FindReplace struct {
	Attr string
	From string
	To   string
}

// Name implements Op.
func (f FindReplace) Name() string {
	return fmt.Sprintf("find-replace(%s: %q -> %q)", f.Attr, f.From, f.To)
}

func (f FindReplace) compile(*Context) (*step, error) {
	return valueStep(f.Attr, func(v string) string {
		if v == f.From {
			return f.To
		}
		return v
	}), nil
}

// DictionaryMerge rewrites every value that appears as a key of Mapping to
// its mapped value; other values are unchanged. Useful for bulk
// find-and-replace, e.g. merging alternative spellings of majors.
type DictionaryMerge struct {
	Attr    string
	Mapping map[string]string
}

// Name implements Op.
func (d DictionaryMerge) Name() string {
	return fmt.Sprintf("dictionary-merge(%s, %d entries)", d.Attr, len(d.Mapping))
}

func (d DictionaryMerge) compile(*Context) (*step, error) {
	return valueStep(d.Attr, mapOr(d.Mapping)), nil
}

// mapOr returns the value function that rewrites the keys of mapping and
// leaves every other value unchanged.
func mapOr(mapping map[string]string) func(string) string {
	return func(v string) string {
		if to, ok := mapping[v]; ok {
			return to
		}
		return v
	}
}

// NullifyInvalid merges every value for which Valid returns false into
// relation.Null. This is the IntelWireless cleaning task of Section 8.4:
// spurious sensor ids are merged to null so a sensor_id != NULL predicate
// drops untrustworthy log entries.
type NullifyInvalid struct {
	Attr  string
	Valid func(string) bool
}

// Name implements Op.
func (n NullifyInvalid) Name() string { return fmt.Sprintf("nullify-invalid(%s)", n.Attr) }

func (n NullifyInvalid) compile(*Context) (*step, error) {
	if n.Valid == nil {
		return nil, fmt.Errorf("nil validity predicate")
	}
	return valueStep(n.Attr, func(v string) string {
		if n.Valid(v) {
			return v
		}
		return relation.Null
	}), nil
}

// Extract creates a new discrete attribute NewAttr whose values are
// F(v[SrcAttr]). The new attribute's provenance graph is the source graph
// composed with F, and its privacy parameters are inherited from the source
// attribute (Section 3.2.1's Extract; post-processing preserves epsilon).
type Extract struct {
	SrcAttr string
	NewAttr string
	F       func(string) string
}

// Name implements Op.
func (e Extract) Name() string { return fmt.Sprintf("extract(%s -> %s)", e.SrcAttr, e.NewAttr) }

func (e Extract) compile(*Context) (*step, error) {
	if e.F == nil {
		return nil, fmt.Errorf("nil extract function")
	}
	return &step{
		reads: []string{e.SrcAttr},
		apply: func(win *relation.Relation, _ bool) error {
			src, err := win.DiscreteIndex(e.SrcAttr)
			if err != nil {
				return err
			}
			image := make([]string, src.N())
			for c, v := range src.Domain {
				image[c] = e.F(v)
			}
			vals := make([]string, len(src.Codes))
			for i, c := range src.Codes {
				vals[i] = image[c]
			}
			return win.AddDiscreteColumn(e.NewAttr, vals)
		},
		finish: func(ctx *Context) error {
			src, err := ctx.graphFor(e.SrcAttr)
			if src == nil {
				return err
			}
			g := src.Clone()
			g.ApplyDeterministic(e.F)
			ctx.Prov.LinkExtracted(e.NewAttr, ctx.Prov.BaseAttr(e.SrcAttr), g)
			return nil
		},
	}, nil
}

// TransformRows is the general multi-attribute cleaner: F receives the
// current discrete values of Attrs for one row and returns their
// replacements (same length, same order). Because F can read several
// attributes, rows sharing a value in one attribute may diverge, so
// provenance is recorded row-level with weighted edges (Section 7).
//
// F must be deterministic in its inputs, and Attrs must not repeat an
// attribute.
type TransformRows struct {
	Attrs []string
	Label string
	F     func(vals []string) []string
}

// Name implements Op.
func (t TransformRows) Name() string {
	if t.Label != "" {
		return fmt.Sprintf("transform-rows(%v:%s)", t.Attrs, t.Label)
	}
	return fmt.Sprintf("transform-rows(%v)", t.Attrs)
}

func (t TransformRows) compile(ctx *Context) (*step, error) {
	if t.F == nil {
		return nil, fmt.Errorf("nil row transform function")
	}
	if len(t.Attrs) == 0 {
		return nil, fmt.Errorf("no attributes")
	}
	// A repeated attribute would be written twice per row, and its graph
	// would record both rewrites, contradicting the data.
	seen := make(map[string]bool, len(t.Attrs))
	for _, a := range t.Attrs {
		if seen[a] {
			return nil, fmt.Errorf("repeated attribute %q", a)
		}
		seen[a] = true
	}
	row := func(_ int, vals []string) []string { return t.F(vals) }
	return rowStep(ctx, t.Attrs, func(*relation.Relation) (func(int, []string) []string, error) { return row, nil }), nil
}
