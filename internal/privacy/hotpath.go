package privacy

import (
	"fmt"
	"math"

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

// SamplerTag names the RNG-consumption pattern of RandomizedResponseInPlace
// — one Float64 per geometric gap plus one Intn per resample — which every
// mechanism name draws through at its mapped p. Pipeline checkpoints record
// it: a chunk's bytes are a pure function of (data, params, chunk stream)
// only under a fixed pattern, so any change to how the sampler consumes
// draws must bump the tag, and resume then refuses checkpoints written under
// another pattern (such as the retired "krr-skip/2" and "rrbin-skip/1")
// instead of splicing two into one view.
const SamplerTag = "grr-skip/2"

// RandomizedResponseInPlace applies the discrete GRR mechanism to col in
// place: each value is kept with probability 1-p and replaced with a uniform
// draw from domain with probability p. It performs no allocation; resampled
// cells consume one Intn draw each on top of the geometric gap draws
// (see resampleVisit).
func RandomizedResponseInPlace(rng Rand, col []string, domain []string, p float64) error {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return faults.Errorf(faults.ErrBadParams, "privacy: randomization probability %v out of [0,1]", p)
	}
	if len(domain) == 0 && len(col) > 0 {
		return faults.Errorf(faults.ErrBadInput, "privacy: empty domain for non-empty column")
	}
	nd := len(domain)
	resampleVisit(rng, p, len(col), func(i int) {
		col[i] = domain[rng.Intn(nd)]
	})
	return nil
}

// LaplacePerturbInPlace applies the Laplace mechanism to col in place: every
// non-NaN value receives independent Laplace(0, b) noise. NaN cells (missing
// values) stay NaN and consume no draw.
func LaplacePerturbInPlace(rng Rand, col []float64, b float64) error {
	if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
		return faults.Errorf(faults.ErrBadParams, "privacy: laplace scale %v must be finite and >= 0", b)
	}
	for i, v := range col {
		if math.IsNaN(v) {
			continue
		}
		col[i] = stats.Laplace(rng, v, b)
	}
	return nil
}

// ViewMetaFor computes the ViewMeta that Privatize would release for r under
// params without drawing any randomness: per-discrete (p, domain) and
// per-numeric (b, delta = max-min of the true column). It performs the same
// parameter validation as Privatize, so a nil error here means PrivatizeRange
// over any row range cannot fail on parameters.
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
		if p < 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("privacy: attribute %q: %w", name,
				faults.Errorf(faults.ErrBadParams, "privacy: randomization probability %v out of [0,1]", p))
		}
		domain := domains[name]
		if len(domain) == 0 && rows > 0 {
			return nil, fmt.Errorf("privacy: attribute %q: %w", name,
				faults.Errorf(faults.ErrBadInput, "privacy: empty domain for non-empty column"))
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
		if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("privacy: attribute %q: %w", name,
				faults.Errorf(faults.ErrBadParams, "privacy: laplace scale %v must be finite and >= 0", b))
		}
		meta.Numeric[name] = NumericMeta{Name: name, B: b, Delta: deltas[name], Lo: lows[name], Bins: bins}
	}
	return meta, nil
}

// PrivatizeRange privatizes rows [lo, hi) of r into view, a same-schema
// relation (typically a Clone of r). meta supplies the per-attribute
// parameters and domains (from ViewMetaFor). Columns are processed in schema
// order — all discrete, then all numeric — so the RNG consumption order is
// the same for every range and per-chunk streams compose deterministically.
//
// PrivatizeRange allocates nothing and only writes rows [lo, hi) of view,
// so disjoint ranges may be privatized concurrently with independent RNGs.
// It does not invalidate view's cached discrete indexes; callers must
// invalidate (or avoid reusing a pre-built index) after the last range.
func PrivatizeRange(rng Rand, r, view *relation.Relation, meta *ViewMeta, lo, hi int) error {
	for _, name := range r.Schema().DiscreteNames() {
		dm, ok := meta.Discrete[name]
		if !ok {
			return faults.Errorf(faults.ErrBadParams, "privacy: no meta for discrete attribute %q", name)
		}
		src, err := r.Discrete(name)
		if err != nil {
			return err
		}
		dst, err := view.Discrete(name)
		if err != nil {
			return err
		}
		p, err := dm.GRRP()
		if err != nil {
			return fmt.Errorf("privacy: attribute %q: %w", name, err)
		}
		copy(dst[lo:hi], src[lo:hi])
		if err := RandomizedResponseInPlace(rng, dst[lo:hi], dm.Domain, p); err != nil {
			return fmt.Errorf("privacy: attribute %q: %w", name, err)
		}
	}
	for _, name := range r.Schema().NumericNames() {
		nm, ok := meta.Numeric[name]
		if !ok {
			return faults.Errorf(faults.ErrBadParams, "privacy: no meta for numeric attribute %q", name)
		}
		src, err := r.Numeric(name)
		if err != nil {
			return err
		}
		dst, err := view.Numeric(name)
		if err != nil {
			return err
		}
		copy(dst[lo:hi], src[lo:hi])
		if err := LaplacePerturbInPlace(rng, dst[lo:hi], nm.B); err != nil {
			return fmt.Errorf("privacy: attribute %q: %w", name, err)
		}
	}
	return nil
}

// invalidateDiscrete drops every cached discrete index of a freshly
// privatized view: the view was cloned from its source (sharing the source's
// caches) and its discrete columns have since been rewritten.
func invalidateDiscrete(v *relation.Relation) {
	for _, name := range v.Schema().DiscreteNames() {
		v.InvalidateIndex(name)
	}
}
