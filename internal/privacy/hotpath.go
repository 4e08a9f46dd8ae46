package privacy

import (
	"fmt"
	"math"
	"slices"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

// resampleVisit calls visit(i), in increasing order of i, for every index in
// [0, n) selected independently with probability p. Instead of one Float64
// per index it samples the geometric gap to the next selected index:
//
//	skip = floor( log(1-U) / log(1-p) ),  U ~ Uniform[0,1)
//
// which satisfies P(skip >= k) = (1-p)^k, so each index is selected with
// probability p exactly as the naive per-index coin flip would — but the
// number of Float64 draws is the number of selections plus one, not n.
//
// Draw-order contract: one Float64 per gap (including the final overshooting
// gap), interleaved with whatever draws visit performs. The stream consumed
// is a pure function of (rng, p, n), never of the column contents, so equal
// streams yield equal selections.
func resampleVisit(rng Rand, p float64, n int, visit func(int)) {
	if p <= 0 || n == 0 {
		return
	}
	if p >= 1 {
		for i := 0; i < n; i++ {
			visit(i)
		}
		return
	}
	denom := math.Log1p(-p) // finite, < 0 for p in (0,1)
	for i := 0; ; {
		skip := math.Log1p(-rng.Float64()) / denom
		if !(skip < float64(n-i)) { // overshoot; also catches +Inf from U -> 1
			return
		}
		i += int(skip)
		visit(i)
		i++
		if i >= n {
			return
		}
	}
}

// SamplerTag names the RNG-consumption pattern of GRR (RandomizedResponse
// and the release path) — one Float64 per geometric gap plus one Intn per
// resample — which every mechanism name draws through at its mapped p.
// Pipeline checkpoints record it: a chunk's bytes are a pure function of
// (data, params, chunk stream) only under a fixed pattern, so any change to
// how the sampler consumes draws must bump the tag, and resume then refuses
// checkpoints written under another pattern (such as the retired
// "krr-skip/2" and "rrbin-skip/1") instead of splicing two into one view.
const SamplerTag = "grr-skip/2"

// checkGRR vets GRR at probability p over a domain of nd values for a
// column of n cells.
func checkGRR(p float64, nd, n int) error {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return faults.Errorf(faults.ErrBadParams, "privacy: randomization probability %v out of [0,1]", p)
	}
	if nd == 0 && n > 0 {
		return faults.Errorf(faults.ErrBadInput, "privacy: empty domain for non-empty column")
	}
	return nil
}

func checkLaplace(b float64) error {
	if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
		return faults.Errorf(faults.ErrBadParams, "privacy: laplace scale %v must be finite and >= 0", b)
	}
	return nil
}

// perturb applies the Laplace mechanism to col in place: every non-NaN
// value receives independent Laplace(0, b) noise. NaN cells (missing
// values) stay NaN and consume no draw.
func perturb(rng Rand, col []float64, b float64) {
	for i, v := range col {
		if math.IsNaN(v) {
			continue
		}
		col[i] = stats.Laplace(rng, v, b)
	}
}

// ViewMetaFor computes the ViewMeta that Privatize would release for r under
// params without drawing any randomness: per-discrete (p, domain) and
// per-numeric (b, delta = max-min of the true column). It performs the same
// parameter validation as Privatize, so a nil error here means privatizing
// any row range cannot fail on parameters.
func ViewMetaFor(r *relation.Relation, params Params) (*ViewMeta, error) {
	schema := r.Schema()
	domains := make(map[string][]string)
	for _, name := range schema.DiscreteNames() {
		domain, err := r.Domain(name)
		if err != nil {
			return nil, err
		}
		domains[name] = domain
	}
	lows := make(map[string]float64)
	deltas := make(map[string]float64)
	for _, name := range schema.NumericNames() {
		col, err := r.Numeric(name)
		if err != nil {
			return nil, err
		}
		if lo, hi, err := stats.MinMax(col); err == nil {
			lows[name], deltas[name] = lo, hi-lo
		}
	}
	return ViewMetaFromProfile(schema, r.NumRows(), domains, lows, deltas, params)
}

// ViewMetaFromProfile is ViewMetaFor over a summary of the input instead of
// the resident relation: the kept-row count, each discrete column's sorted
// domain, and each numeric column's minimum (lows) and max-min (deltas) over
// its finite cells, absent or 0 when it has none. A streaming profile
// (csvio.Profile) supplies exactly these, so both input modes release the
// same metadata bytes.
func ViewMetaFromProfile(schema relation.Schema, rows int, domains map[string][]string, lows, deltas map[string]float64, params Params) (*ViewMeta, error) {
	if err := MechanismByName(params.Mechanism); err != nil {
		return nil, faults.Wrap(faults.ErrBadParams, err)
	}
	// GRR is stored as the empty string so metadata for the default
	// mechanism stays byte-identical with releases that predate mechanism
	// names no matter how the caller spelled it.
	mechName := params.Mechanism
	if mechName == MechGRR {
		mechName = ""
	}
	meta := &ViewMeta{
		Discrete: make(map[string]DiscreteMeta),
		Numeric:  make(map[string]NumericMeta),
		Rows:     rows,
	}
	for _, name := range schema.DiscreteNames() {
		p, ok := params.P[name]
		if !ok {
			return nil, faults.Errorf(faults.ErrBadParams, "privacy: no randomization probability for discrete attribute %q", name)
		}
		domain := domains[name]
		if err := checkGRR(p, len(domain), rows); err != nil {
			return nil, fmt.Errorf("privacy: attribute %q: %w", name, err)
		}
		if len(domain) > 0 {
			if err := checkP(params.Mechanism, p, len(domain)); err != nil {
				return nil, fmt.Errorf("privacy: attribute %q: %w", name, err)
			}
		}
		meta.Discrete[name] = DiscreteMeta{Name: name, P: p, Domain: domain, Mechanism: mechName}
	}
	bins := params.Bins
	if bins < 0 {
		bins = 0
	}
	for _, name := range schema.NumericNames() {
		b, ok := params.B[name]
		if !ok {
			return nil, faults.Errorf(faults.ErrBadParams, "privacy: no laplace scale for numeric attribute %q", name)
		}
		if err := checkLaplace(b); err != nil {
			return nil, fmt.Errorf("privacy: attribute %q: %w", name, err)
		}
		meta.Numeric[name] = NumericMeta{Name: name, B: b, Delta: deltas[name], Lo: lows[name], Bins: bins}
	}
	return meta, nil
}

// release is a view being privatized from a source relation under meta:
// one function per column, in schema order (all discrete, then all
// numeric), that privatizes a row range of it, and the columns they write.
// A discrete column is codes into its output domain — the released domain
// GRR draws from, then any source value outside it — and a numeric column
// a copy of the source's. Disjoint ranges may be privatized concurrently
// with independent RNGs.
type release struct {
	src     *relation.Relation
	cols    []func(rng Rand, lo, hi int)
	coded   map[string]*relation.DiscreteIndex
	numeric map[string][]float64
}

// newRelease lays out the view of r that meta releases, checking every
// attribute's parameters in column order.
func newRelease(r *relation.Relation, meta *ViewMeta) (*release, error) {
	rel := &release{src: r, coded: map[string]*relation.DiscreteIndex{}, numeric: map[string][]float64{}}
	for _, name := range r.Schema().DiscreteNames() {
		dm, ok := meta.Discrete[name]
		if !ok {
			return nil, faults.Errorf(faults.ErrBadParams, "privacy: no meta for discrete attribute %q", name)
		}
		src, err := r.DiscreteIndex(name)
		if err != nil {
			return nil, err
		}
		p, err := dm.GRRP()
		if err == nil {
			err = checkGRR(p, len(dm.Domain), r.NumRows())
		}
		if err != nil {
			return nil, fmt.Errorf("privacy: attribute %q: %w", name, err)
		}
		domain, nd := slices.Clip(dm.Domain), len(dm.Domain)
		remap := make([]uint32, src.N())
		for c, v := range src.Domain {
			k, found := slices.BinarySearch(dm.Domain, v)
			if !found {
				k, domain = len(domain), append(domain, v)
			}
			remap[c] = uint32(k)
		}
		codes := make([]uint32, r.NumRows())
		rel.coded[name] = &relation.DiscreteIndex{Domain: domain, Codes: codes}
		// Draws exactly as RandomizedResponse does.
		rel.cols = append(rel.cols, func(rng Rand, lo, hi int) {
			out := codes[lo:hi]
			for k, c := range src.Codes[lo:hi] {
				out[k] = remap[c]
			}
			resampleVisit(rng, p, hi-lo, func(k int) { out[k] = uint32(rng.Intn(nd)) })
		})
	}
	for _, name := range r.Schema().NumericNames() {
		nm, ok := meta.Numeric[name]
		if !ok {
			return nil, faults.Errorf(faults.ErrBadParams, "privacy: no meta for numeric attribute %q", name)
		}
		src, err := r.Numeric(name)
		if err != nil {
			return nil, err
		}
		if err := checkLaplace(nm.B); err != nil {
			return nil, fmt.Errorf("privacy: attribute %q: %w", name, err)
		}
		vals := make([]float64, len(src))
		rel.numeric[name] = vals
		rel.cols = append(rel.cols, func(rng Rand, lo, hi int) {
			copy(vals[lo:hi], src[lo:hi])
			perturb(rng, vals[lo:hi], nm.B)
		})
	}
	return rel, nil
}

// privatize privatizes rows [lo, hi), column by column, so the RNG
// consumption order is the same for every range and per-chunk streams
// compose deterministically. It allocates nothing.
func (rel *release) privatize(rng Rand, lo, hi int) {
	for _, col := range rel.cols {
		col(rng, lo, hi)
	}
}

// view installs the privatized columns as a relation of the source's schema.
func (rel *release) view() (*relation.Relation, error) {
	for name, ix := range rel.coded {
		canon, err := relation.NewIndex(ix.Domain, ix.Codes)
		if err != nil {
			return nil, err
		}
		rel.coded[name] = canon
	}
	return relation.FromBacking(rel.src.Schema(), rel.src.NumRows(), rel.numeric, rel.coded)
}

// PrivatizeWithMeta privatizes every row of r under meta (from ViewMetaFor
// or a profile) with one RNG stream and returns the view; r is not
// modified. The chunk pipeline privatizes each window through it.
func PrivatizeWithMeta(rng Rand, r *relation.Relation, meta *ViewMeta) (*relation.Relation, error) {
	rel, err := newRelease(r, meta)
	if err != nil {
		return nil, err
	}
	rel.privatize(rng, 0, r.NumRows())
	return rel.view()
}
