package estimator

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

// Sufficient statistics for the corrected estimators. The Eq. 3 / Eq. 5 /
// Eq. 7 estimators consume the relation only through a handful of
// marginals — the row count, per-value counts of each discrete attribute,
// per-(discrete value, numeric attribute) sums, and per-numeric-column
// moments — so a one-pass Collector over streamed windows captures
// everything count/sum/avg (including GROUP BY) need, in space proportional
// to the domain sizes rather than the data.
//
// Two optional layouts extend the marginals past count/sum/avg:
//
//   - binned histograms (CollectOpts.BinEdges, normally the edges released in
//     the view metadata): per-numeric-attribute bin counts plus per-discrete-
//     value bin counts, which answer DP quantiles/median and GROUP BY bin;
//   - pairwise joint marginals (CollectOpts.Joints, the -conj spec): per
//     (value_a, value_b) cell counts and aggregate sums, which answer
//     cross-attribute AND conjunctions over exactly the recorded pairs.
//
// What still cannot be answered from these marginals: var/std (needs the raw
// column), conjunctions over unrecorded pairs or of three or more
// attributes, and binned sum/avg GROUP BY. Those paths keep requiring the
// relation and return a typed error here.
//
// Numerical caveat: sums are re-associated (accumulated per value, then
// added in sorted-value order), so statistics-backed estimates can differ
// from relation-backed ones by float rounding — relative error around 1e-12,
// asserted in the tests — and the variance is computed from one-pass moments
// rather than the two-pass formula.

// Moments holds NaN-skipping running moments of one numeric column.
type Moments struct {
	// Count is the number of non-NaN cells; Sum and SumSq their first two
	// power sums.
	Count int     `json:"count"`
	Sum   float64 `json:"sum"`
	SumSq float64 `json:"sumsq"`
}

// moments returns the NaN-skipping mean and the population variance from
// the one-pass moments, clamped at zero against cancellation, with
// stats.ErrEmpty on no data.
func (m Moments) moments() (mean, variance float64, err error) {
	if m.Count == 0 {
		return 0, 0, stats.ErrEmpty
	}
	mu := m.Sum / float64(m.Count)
	v := m.SumSq/float64(m.Count) - mu*mu
	if v < 0 {
		v = 0
	}
	return mu, v, nil
}

// ValueStats holds the marginals of one distinct value of a discrete
// attribute.
type ValueStats struct {
	// Count is the number of rows holding this value; Sums the per-numeric-
	// attribute sum of aggregate cells over those rows (NaN cells skipped).
	Count int                `json:"count"`
	Sums  map[string]float64 `json:"sums,omitempty"`
	// Bins maps numeric attribute -> per-bin counts of that attribute's
	// non-NaN cells over this value's rows, under the same edges as the
	// attribute's Histogram. Present only when the collector was configured
	// with bin edges; it is what predicate-conditioned quantiles invert.
	Bins map[string][]int `json:"bins,omitempty"`
}

// Histogram is the binned layout of one numeric attribute: Counts[k] is the
// number of non-NaN cells in [Edges[k], Edges[k+1]) (the last bin is closed
// on the right; out-of-range cells clamp into the end bins, so the counts
// always sum to the column's non-NaN count).
type Histogram struct {
	Edges  []float64 `json:"edges"`
	Counts []int     `json:"counts"`
}

// JointCell holds the marginals of one (value_a, value_b) cell of a pairwise
// joint distribution: the row count plus per-numeric-attribute aggregate
// sums, squared sums, and non-NaN counts over the cell's rows.
type JointCell struct {
	Count  int                `json:"count"`
	Sums   map[string]float64 `json:"sums,omitempty"`
	SumSqs map[string]float64 `json:"sumsqs,omitempty"`
	NonNaN map[string]int     `json:"nonnan,omitempty"`
}

// JointStats is the pairwise joint distribution of two discrete attributes
// (A < B lexicographically): Cells[va][vb] are the marginals of the rows
// holding both values.
type JointStats struct {
	A     string                           `json:"a"`
	B     string                           `json:"b"`
	Cells map[string]map[string]*JointCell `json:"cells"`

	// table is Cells as a sorted joint table, converted on the first
	// conjunction query (conjstats.go) and cleared by Collector.Add.
	table atomic.Pointer[statsJoint]
}

// Statistics is the serializable sufficient-statistics summary of one
// (cleaned) private relation.
type Statistics struct {
	// Rows is the relation's row count (S in the paper's notation).
	Rows int `json:"rows"`
	// Columns is the relation's schema, for validation when reloaded.
	Columns []relation.Column `json:"columns"`
	// Discrete maps attribute -> distinct value -> marginals.
	Discrete map[string]map[string]*ValueStats `json:"discrete"`
	// Numeric maps attribute -> column moments.
	Numeric map[string]Moments `json:"numeric"`
	// Hist maps numeric attribute -> binned histogram. Present only when
	// the collector was configured with bin edges (pc stats -meta/-bins).
	Hist map[string]*Histogram `json:"hist,omitempty"`
	// Joints maps a normalized "a&b" pair key -> pairwise joint marginals.
	// Present only for pairs named in the collector's -conj spec; use Joint
	// for order-insensitive lookup (the key is cosmetic).
	Joints map[string]*JointStats `json:"joints,omitempty"`
}

// Joint returns the recorded pairwise joint of two discrete attributes, in
// either argument order.
func (st *Statistics) Joint(a, b string) (*JointStats, bool) {
	if b < a {
		a, b = b, a
	}
	for _, j := range st.Joints {
		if j.A == a && j.B == b {
			return j, true
		}
	}
	return nil, false
}

// jointKey is the serialized map key of a normalized pair.
func jointKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "&" + b
}

// binIndex places x into the bin layout of edges (len >= 2, ascending):
// left-closed bins, last bin closed on the right, out-of-range values
// clamped into the end bins.
func binIndex(edges []float64, x float64) int {
	i := sort.SearchFloat64s(edges, x)
	k := i - 1
	if i < len(edges) && edges[i] == x {
		k = i
	}
	if k < 0 {
		k = 0
	}
	if k > len(edges)-2 {
		k = len(edges) - 2
	}
	return k
}

// Domain returns the sorted distinct values of a discrete attribute.
func (st *Statistics) Domain(attr string) ([]string, error) {
	vs, ok := st.Discrete[attr]
	if !ok {
		return nil, fmt.Errorf("estimator: no statistics for discrete attribute %q", attr)
	}
	return sortedKeys(vs), nil
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// moments returns the recorded moments of a numeric attribute.
func (st *Statistics) moments(agg string) (Moments, error) {
	m, ok := st.Numeric[agg]
	if !ok {
		return Moments{}, fmt.Errorf("estimator: no statistics for numeric attribute %q", agg)
	}
	return m, nil
}

// countMatches returns the number of rows whose pred.Attr value satisfies
// pred (nil Match matches all), from the per-value counts.
func (st *Statistics) countMatches(pred Predicate) (int, error) {
	vs, ok := st.Discrete[pred.Attr]
	if !ok {
		return 0, fmt.Errorf("estimator: no statistics for discrete attribute %q", pred.Attr)
	}
	n := 0
	for v, s := range vs {
		if pred.Match == nil || pred.Match(v) {
			n += s.Count
		}
	}
	return n, nil
}

// sumMatches returns the sums of agg over rows satisfying pred and over the
// complement, accumulating per-value sums in sorted-value order so the
// result is deterministic.
func (st *Statistics) sumMatches(agg string, pred Predicate) (matched, complement float64, err error) {
	vs, ok := st.Discrete[pred.Attr]
	if !ok {
		return 0, 0, fmt.Errorf("estimator: no statistics for discrete attribute %q", pred.Attr)
	}
	if _, err := st.moments(agg); err != nil {
		return 0, 0, err
	}
	for _, v := range sortedKeys(vs) {
		x := vs[v].Sums[agg]
		if pred.Match == nil || pred.Match(v) {
			matched += x
		} else {
			complement += x
		}
	}
	return matched, complement, nil
}

// CollectOpts configures the optional statistics layouts.
type CollectOpts struct {
	// BinEdges maps numeric attribute -> bin edges (len >= 2, strictly
	// ascending), normally NumericMeta.BinEdges() from the view metadata so
	// the stats path and the resident path bin identically.
	BinEdges map[string][]float64
	// Joints lists discrete attribute pairs whose joint distribution to
	// record (the -conj spec). Order within a pair is irrelevant.
	Joints [][2]string
}

// Collector accumulates Statistics over streamed windows of one relation.
// Feed every window to Add in any order; all windows must share one schema.
type Collector struct {
	st       *Statistics
	schema   relation.Schema
	discrete []string
	numeric  []string
	opts     CollectOpts
}

// NewCollector creates an empty collector; the first Add fixes the schema.
func NewCollector() *Collector { return &Collector{} }

// NewCollectorWith creates an empty collector that additionally records the
// layouts named in opts. Edge lists and pairs are validated here; that the
// named attributes exist with the right kind is validated at the first Add,
// when the schema is known.
func NewCollectorWith(opts CollectOpts) (*Collector, error) {
	for attr, edges := range opts.BinEdges {
		if len(edges) < 2 {
			return nil, faults.Errorf(faults.ErrBadParams, "estimator: attribute %q needs at least 2 bin edges, got %d", attr, len(edges))
		}
		for i := 1; i < len(edges); i++ {
			if !(edges[i] > edges[i-1]) {
				return nil, faults.Errorf(faults.ErrBadParams, "estimator: attribute %q bin edges must be strictly increasing (edge %d = %v, edge %d = %v)",
					attr, i-1, edges[i-1], i, edges[i])
			}
		}
	}
	seen := make(map[string]bool, len(opts.Joints))
	norm := make([][2]string, 0, len(opts.Joints))
	for _, pair := range opts.Joints {
		a, b := pair[0], pair[1]
		if b < a {
			a, b = b, a
		}
		if a == "" || b == "" || a == b {
			return nil, faults.Errorf(faults.ErrBadParams, "estimator: joint pair needs two distinct attributes, got %q and %q", pair[0], pair[1])
		}
		if key := jointKey(a, b); !seen[key] {
			seen[key] = true
			norm = append(norm, [2]string{a, b})
		}
	}
	sort.Slice(norm, func(i, j int) bool {
		if norm[i][0] != norm[j][0] {
			return norm[i][0] < norm[j][0]
		}
		return norm[i][1] < norm[j][1]
	})
	return &Collector{opts: CollectOpts{BinEdges: opts.BinEdges, Joints: norm}}, nil
}

// validateOpts checks the configured layouts against the (now known) schema.
func (c *Collector) validateOpts() error {
	for attr := range c.opts.BinEdges {
		if !contains(c.numeric, attr) {
			return faults.Errorf(faults.ErrBadParams, "estimator: bin edges name %q, which is not a numeric attribute of the schema", attr)
		}
	}
	for _, pair := range c.opts.Joints {
		for _, attr := range []string{pair[0], pair[1]} {
			if !contains(c.discrete, attr) {
				return faults.Errorf(faults.ErrBadParams, "estimator: joint pair names %q, which is not a discrete attribute of the schema", attr)
			}
		}
	}
	return nil
}

func contains(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

// NewCollectorFrom resumes accumulation from previously collected statistics
// (e.g. a store checkpoint reloaded from JSON). A nil or schema-less st
// behaves like NewCollector; otherwise later windows must match the schema
// recorded in st.Columns. Reload normalization: maps dropped by omitempty
// when empty (a value all of whose aggregate cells were missing) are
// reallocated so Add can keep accumulating into them.
func NewCollectorFrom(st *Statistics) (*Collector, error) {
	if st == nil || len(st.Columns) == 0 {
		return NewCollector(), nil
	}
	schema, err := relation.NewSchema(st.Columns...)
	if err != nil {
		return nil, faults.Wrap(faults.ErrBadMeta, err)
	}
	c := &Collector{
		st:       st,
		schema:   schema,
		discrete: schema.DiscreteNames(),
		numeric:  schema.NumericNames(),
	}
	// The optional layouts resume from what the checkpoint recorded: the
	// histogram edges and joint pairs are part of the stored statistics, so
	// a resumed collector keeps accumulating into the same layout.
	for attr, h := range st.Hist {
		if c.opts.BinEdges == nil {
			c.opts.BinEdges = make(map[string][]float64, len(st.Hist))
		}
		c.opts.BinEdges[attr] = h.Edges
	}
	for _, j := range st.Joints {
		c.opts.Joints = append(c.opts.Joints, [2]string{j.A, j.B})
	}
	if st.Discrete == nil {
		st.Discrete = make(map[string]map[string]*ValueStats, len(c.discrete))
	}
	for _, a := range c.discrete {
		if st.Discrete[a] == nil {
			st.Discrete[a] = make(map[string]*ValueStats)
		}
		for _, s := range st.Discrete[a] {
			if len(c.numeric) > 0 && s.Sums == nil {
				s.Sums = make(map[string]float64, len(c.numeric))
			}
			if len(c.opts.BinEdges) > 0 && s.Bins == nil {
				s.Bins = make(map[string][]int, len(c.opts.BinEdges))
			}
		}
	}
	if st.Numeric == nil {
		st.Numeric = make(map[string]Moments, len(c.numeric))
	}
	for _, j := range st.Joints {
		for _, row := range j.Cells {
			for _, cell := range row {
				if cell.Sums == nil {
					cell.Sums = make(map[string]float64, len(c.numeric))
				}
				if cell.SumSqs == nil {
					cell.SumSqs = make(map[string]float64, len(c.numeric))
				}
				if cell.NonNaN == nil {
					cell.NonNaN = make(map[string]int, len(c.numeric))
				}
			}
		}
	}
	if err := c.validateOpts(); err != nil {
		return nil, err
	}
	return c, nil
}

// Add folds one window into the running statistics.
func (c *Collector) Add(win *relation.Relation) error {
	if c.st == nil {
		c.schema = win.Schema()
		c.discrete = c.schema.DiscreteNames()
		c.numeric = c.schema.NumericNames()
		if err := c.validateOpts(); err != nil {
			return err
		}
		c.st = &Statistics{
			Columns:  c.schema.Columns(),
			Discrete: make(map[string]map[string]*ValueStats, len(c.discrete)),
			Numeric:  make(map[string]Moments, len(c.numeric)),
		}
		for _, a := range c.discrete {
			c.st.Discrete[a] = make(map[string]*ValueStats)
		}
		if len(c.opts.BinEdges) > 0 {
			c.st.Hist = make(map[string]*Histogram, len(c.opts.BinEdges))
			for attr, edges := range c.opts.BinEdges {
				c.st.Hist[attr] = &Histogram{Edges: edges, Counts: make([]int, len(edges)-1)}
			}
		}
		if len(c.opts.Joints) > 0 {
			c.st.Joints = make(map[string]*JointStats, len(c.opts.Joints))
			for _, pair := range c.opts.Joints {
				c.st.Joints[jointKey(pair[0], pair[1])] = &JointStats{
					A: pair[0], B: pair[1], Cells: make(map[string]map[string]*JointCell),
				}
			}
		}
	} else if win.Schema().String() != c.schema.String() {
		return faults.Errorf(faults.ErrBadInput,
			"estimator: window schema %q differs from first window %q", win.Schema(), c.schema)
	}
	c.st.Rows += win.NumRows()
	numCols := make([][]float64, len(c.numeric))
	// binIdx[j] caches the per-row bin of numeric attribute j (-1 for NaN)
	// when that attribute has configured edges; nil otherwise.
	binIdx := make([][]int, len(c.numeric))
	for i, a := range c.numeric {
		col := win.MustNumeric(a)
		numCols[i] = col
		m := c.st.Numeric[a]
		edges := c.opts.BinEdges[a]
		var hist *Histogram
		if edges != nil {
			hist = c.st.Hist[a]
			binIdx[i] = make([]int, len(col))
		}
		for row, x := range col {
			if math.IsNaN(x) {
				if edges != nil {
					binIdx[i][row] = -1
				}
				continue
			}
			m.Count++
			m.Sum += x
			m.SumSq += x * x
			if edges != nil {
				k := binIndex(edges, x)
				binIdx[i][row] = k
				hist.Counts[k]++
			}
		}
		c.st.Numeric[a] = m
	}
	for _, a := range c.discrete {
		col := win.MustDiscrete(a)
		vs := c.st.Discrete[a]
		for i, v := range col {
			s := vs[v]
			if s == nil {
				s = &ValueStats{}
				if len(c.numeric) > 0 {
					s.Sums = make(map[string]float64, len(c.numeric))
				}
				if len(c.opts.BinEdges) > 0 {
					s.Bins = make(map[string][]int, len(c.opts.BinEdges))
				}
				vs[v] = s
			}
			s.Count++
			for j, na := range c.numeric {
				x := numCols[j][i]
				if !math.IsNaN(x) {
					s.Sums[na] += x
				}
				if binIdx[j] != nil {
					if k := binIdx[j][i]; k >= 0 {
						bins := s.Bins[na]
						if bins == nil {
							bins = make([]int, len(c.opts.BinEdges[na])-1)
							s.Bins[na] = bins
						}
						bins[k]++
					}
				}
			}
		}
	}
	for _, pair := range c.opts.Joints {
		j := c.st.Joints[jointKey(pair[0], pair[1])]
		j.table.Store(nil)
		colA := win.MustDiscrete(pair[0])
		colB := win.MustDiscrete(pair[1])
		for i := range colA {
			row := j.Cells[colA[i]]
			if row == nil {
				row = make(map[string]*JointCell)
				j.Cells[colA[i]] = row
			}
			cell := row[colB[i]]
			if cell == nil {
				cell = &JointCell{
					Sums:   make(map[string]float64, len(c.numeric)),
					SumSqs: make(map[string]float64, len(c.numeric)),
					NonNaN: make(map[string]int, len(c.numeric)),
				}
				row[colB[i]] = cell
			}
			cell.Count++
			for k, na := range c.numeric {
				x := numCols[k][i]
				if !math.IsNaN(x) {
					cell.Sums[na] += x
					cell.SumSqs[na] += x * x
					cell.NonNaN[na]++
				}
			}
		}
	}
	return nil
}

// Statistics returns the accumulated summary (empty, with a nil schema, if
// Add was never called).
func (c *Collector) Statistics() *Statistics {
	if c.st == nil {
		return &Statistics{
			Discrete: make(map[string]map[string]*ValueStats),
			Numeric:  make(map[string]Moments),
		}
	}
	return c.st
}

// Clone returns a deep copy of c that accumulates exactly as c would, and
// exactly as a collector resumed from c's statistics JSON would: Add on
// either leaves the other's statistics untouched. Joint-table memos start
// empty in the copy. The configured layouts are read-only after
// construction, so the copy shares them.
func (c *Collector) Clone() *Collector {
	out := &Collector{schema: c.schema, discrete: c.discrete, numeric: c.numeric, opts: c.opts}
	if c.st != nil {
		out.st = c.st.clone()
	}
	return out
}

// clone deep-copies the statistics, memos excepted. Each map is cloned
// whole, keeping its table layout, and then has its values replaced by
// copies in place.
func (st *Statistics) clone() *Statistics {
	out := &Statistics{
		Rows:     st.Rows,
		Columns:  slices.Clone(st.Columns),
		Discrete: maps.Clone(st.Discrete),
		Numeric:  maps.Clone(st.Numeric),
		Hist:     maps.Clone(st.Hist),
		Joints:   maps.Clone(st.Joints),
	}
	for attr, vals := range out.Discrete {
		vals = maps.Clone(vals)
		for v, s := range vals {
			cp := &ValueStats{Count: s.Count, Sums: maps.Clone(s.Sums), Bins: maps.Clone(s.Bins)}
			for na, bins := range cp.Bins {
				cp.Bins[na] = slices.Clone(bins)
			}
			vals[v] = cp
		}
		out.Discrete[attr] = vals
	}
	for attr, h := range out.Hist {
		out.Hist[attr] = &Histogram{Edges: slices.Clone(h.Edges), Counts: slices.Clone(h.Counts)}
	}
	for key, j := range out.Joints {
		cells := maps.Clone(j.Cells)
		for va, row := range cells {
			row = maps.Clone(row)
			for vb, cell := range row {
				row[vb] = &JointCell{
					Count:  cell.Count,
					Sums:   maps.Clone(cell.Sums),
					SumSqs: maps.Clone(cell.SumSqs),
					NonNaN: maps.Clone(cell.NonNaN),
				}
			}
			cells[va] = row
		}
		out.Joints[key] = &JointStats{A: j.A, B: j.B, Cells: cells}
	}
	return out
}

// CollectStatistics drains an iterator through a Collector.
func CollectStatistics(it relation.Iterator) (*Statistics, error) {
	return collectInto(NewCollector(), it)
}

// CollectStatisticsWith drains an iterator through a Collector configured
// with the optional layouts in opts.
func CollectStatisticsWith(it relation.Iterator, opts CollectOpts) (*Statistics, error) {
	c, err := NewCollectorWith(opts)
	if err != nil {
		return nil, err
	}
	return collectInto(c, it)
}

func collectInto(c *Collector, it relation.Iterator) (*Statistics, error) {
	for {
		win, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := c.Add(win); err != nil {
			return nil, err
		}
	}
	return c.Statistics(), nil
}

// CountStats is Count over sufficient statistics instead of a resident
// relation.
func (e *Estimator) CountStats(st *Statistics, pred Predicate) (Estimate, error) {
	ch, err := e.invertible(pred)
	if err != nil {
		return Estimate{}, err
	}
	cPriv, err := st.countMatches(pred)
	if err != nil {
		return Estimate{}, err
	}
	return e.countEstimate(ch, float64(cPriv), float64(st.Rows))
}

// SumStats is Sum over sufficient statistics.
func (e *Estimator) SumStats(st *Statistics, agg string, pred Predicate) (Estimate, error) {
	ch, err := e.invertible(pred)
	if err != nil {
		return Estimate{}, err
	}
	hp, hpc, err := st.sumMatches(agg, pred)
	if err != nil {
		return Estimate{}, err
	}
	if st.Rows == 0 {
		return Estimate{}, fmt.Errorf("estimator: empty relation")
	}
	cPriv, err := st.countMatches(pred)
	if err != nil {
		return Estimate{}, err
	}
	m, err := st.moments(agg)
	if err != nil {
		return Estimate{}, err
	}
	muP, varP, err := e.spread(m.moments())
	if err != nil {
		return Estimate{}, err
	}
	return e.sumEstimate(ch, hp, hpc, float64(cPriv), float64(st.Rows), muP, varP)
}

// AvgStats is Avg over sufficient statistics: the ratio of SumStats and
// CountStats with the same delta-method interval.
func (e *Estimator) AvgStats(st *Statistics, agg string, pred Predicate) (Estimate, error) {
	h, err := e.SumStats(st, agg, pred)
	if err != nil {
		return Estimate{}, err
	}
	c, err := e.CountStats(st, pred)
	if err != nil {
		return Estimate{}, err
	}
	if c.Value == 0 {
		return Estimate{}, fmt.Errorf("%w for %s", ErrZeroEstimatedCount, pred)
	}
	v := h.Value / c.Value
	return Estimate{Value: v, CI: ratioCI(v, h, c)}, nil
}

// TotalCountStats is TotalCount over sufficient statistics.
func (e *Estimator) TotalCountStats(st *Statistics) Estimate {
	return Estimate{Value: float64(st.Rows)}
}

// TotalSumStats is TotalSum over sufficient statistics.
func (e *Estimator) TotalSumStats(st *Statistics, agg string) (Estimate, error) {
	m, err := st.moments(agg)
	if err != nil {
		return Estimate{}, err
	}
	_, varP, err := m.moments()
	if err != nil {
		return Estimate{}, err
	}
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, err
	}
	s := float64(st.Rows)
	return Estimate{Value: m.Sum, CI: z * math.Sqrt(s*varP)}, nil
}

// TotalAvgStats is TotalAvg over sufficient statistics.
func (e *Estimator) TotalAvgStats(st *Statistics, agg string) (Estimate, error) {
	m, err := st.moments(agg)
	if err != nil {
		return Estimate{}, err
	}
	mu, varP, err := m.moments()
	if err != nil {
		return Estimate{}, err
	}
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, err
	}
	s := float64(st.Rows)
	if s == 0 {
		return Estimate{}, stats.ErrEmpty
	}
	return Estimate{Value: mu, CI: z * math.Sqrt(varP/s)}, nil
}

// GroupCountsStats is GroupCounts over sufficient statistics.
func (e *Estimator) GroupCountsStats(st *Statistics, attr string) (map[string]Estimate, error) {
	domain, err := st.Domain(attr)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Estimate, len(domain))
	for _, v := range domain {
		est, err := e.CountStats(st, Eq(attr, v))
		if err != nil {
			return nil, err
		}
		out[v] = est
	}
	return out, nil
}

// GroupSumsStats is GroupSums over sufficient statistics.
func (e *Estimator) GroupSumsStats(st *Statistics, attr, agg string) (map[string]Estimate, error) {
	domain, err := st.Domain(attr)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Estimate, len(domain))
	for _, v := range domain {
		est, err := e.SumStats(st, agg, Eq(attr, v))
		if err != nil {
			return nil, err
		}
		out[v] = est
	}
	return out, nil
}

// GroupAvgsStats is GroupAvgs over sufficient statistics; zero-count groups
// are omitted, as in GroupAvgs.
func (e *Estimator) GroupAvgsStats(st *Statistics, attr, agg string) (map[string]Estimate, error) {
	domain, err := st.Domain(attr)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Estimate, len(domain))
	for _, v := range domain {
		est, err := e.AvgStats(st, agg, Eq(attr, v))
		if err != nil {
			if errors.Is(err, ErrZeroEstimatedCount) {
				continue
			}
			return nil, err
		}
		out[v] = est
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("estimator: no group of %q has a nonzero estimated count", attr)
	}
	return out, nil
}
