// Package privacy implements the Generalized Randomized Response (GRR)
// mechanism of PrivateClean (Section 4 of the paper) along with its privacy
// accounting:
//
//   - randomized response for discrete attributes: with probability p_i a
//     value is replaced by a uniform draw from the attribute's domain
//     (Section 4.2.1), which is eps-local differentially private with the
//     exact eps = ln(N(1-p)/p + 1) over N values (Lemma 1's ln(3/p - 2) is
//     its N = 3 case); k-RR and binary RR are the same channel under
//     another parameter (see GRRP);
//   - the Laplace mechanism for numerical attributes: zero-mean Laplace(b_i)
//     noise (Section 4.2.2), eps = Delta_i / b_i (Proposition 1);
//   - composition across attributes: eps_total = sum of per-attribute eps
//     (Theorem 1);
//   - the Theorem 2 dataset-size bound S > (N/p) log(pN/alpha) for the
//     domain to be preserved with probability 1-alpha; and
//   - the Appendix E parameter-tuning algorithm deriving (p, b_j) from a
//     target count-query error.
package privacy

import (
	"fmt"
	"math"
	"sort"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

// Rand is the randomness source GRR needs. *math/rand.Rand satisfies it;
// tests can substitute deterministic sources.
type Rand interface {
	Float64() float64
	Intn(n int) int
}

// Params configures GRR for one relation. Every discrete attribute must have
// an entry in P (its randomization probability) and every numeric attribute
// an entry in B (its Laplace scale). Use Uniform to build Params from a
// single (p, b) pair.
type Params struct {
	// P maps discrete attribute name -> randomization probability in [0, 1).
	P map[string]float64
	// B maps numeric attribute name -> Laplace noise scale, >= 0.
	B map[string]float64
	// Mechanism selects the discrete mechanism for every discrete
	// attribute ("" and MechGRR both mean the paper's GRR; see
	// MechanismByName). The Laplace mechanism for numeric attributes is
	// unaffected.
	Mechanism string
	// Bins is the bin count recorded in each NumericMeta for
	// binned-histogram estimation (quantiles, GROUP BY bin). <= 0 records
	// no bin layout; the binned estimators then refuse with a typed error.
	Bins int
}

// Uniform builds Params that use the same p for every discrete attribute and
// the same b for every numeric attribute of the schema, with the default
// released bin layout (DefaultBins).
func Uniform(schema relation.Schema, p, b float64) Params {
	params := Params{P: make(map[string]float64), B: make(map[string]float64), Bins: DefaultBins}
	for _, name := range schema.DiscreteNames() {
		params.P[name] = p
	}
	for _, name := range schema.NumericNames() {
		params.B[name] = b
	}
	return params
}

// DiscreteMeta records everything the analyst needs to estimate queries over
// one randomized discrete attribute: the randomization probability and the
// dirty domain the mechanism drew replacements from. Both are part of the
// mechanism (not secrets) under the randomized-response model.
type DiscreteMeta struct {
	Name   string
	P      float64
	Domain []string // sorted distinct values of the source attribute
	// Mechanism names the discrete mechanism the view was randomized
	// under, and P is that mechanism's parameter as written; GRRP maps
	// both to the GRR channel. Empty means GRR (the only mechanism before
	// names existed, so legacy metadata decodes correctly).
	Mechanism string `json:",omitempty"`
}

// N returns the dirty-domain size |Domain(d_i)|.
func (m DiscreteMeta) N() int { return len(m.Domain) }

// GRRP returns the GRR resampling probability that realizes the
// attribute's recorded mechanism at its recorded p (see the package-level
// GRRP). An unknown mechanism name is an error.
func (m DiscreteMeta) GRRP() (float64, error) { return GRRP(m.Mechanism, m.P, m.N()) }

// Epsilon returns the attribute's exact local differential privacy
// parameter, EpsilonDiscreteExact at the mapped GRR p: the likelihood ratio
// a client's value actually faces, whatever name the mechanism was recorded
// under. p == 0 over two or more values yields +Inf (no privacy), and an
// unknown mechanism yields +Inf too (assume no privacy rather than
// overstate it).
func (m DiscreteMeta) Epsilon() float64 {
	p, err := m.GRRP()
	if err != nil {
		return math.Inf(1)
	}
	return EpsilonDiscreteExact(p, m.N())
}

// NumericMeta records the Laplace scale and observed sensitivity of one
// randomized numeric attribute.
type NumericMeta struct {
	Name  string
	B     float64
	Delta float64 // max - min of the source column (Proposition 1's Delta_i)
	// Lo is the minimum of the source column over its finite cells (0 when
	// the column has none). Together with Delta it anchors the released bin
	// layout: the binned-histogram estimators (quantiles, GROUP BY bin)
	// derive their edges from [Lo, Lo+Delta].
	Lo float64 `json:",omitempty"`
	// Bins is the bin count released for binned-histogram estimation. 0
	// means the release predates binned layouts (or was privatized with
	// -bins 0); binned estimators then return a typed error instead of
	// inventing edges the provider never published.
	Bins int `json:",omitempty"`
}

// Epsilon returns the attribute's local differential privacy parameter
// (Proposition 1). b == 0 yields +Inf (no privacy).
func (m NumericMeta) Epsilon() float64 { return EpsilonNumeric(m.Delta, m.B) }

// DefaultBins is the bin count privatize records when none is requested.
const DefaultBins = 64

// BinEdges returns the released bin layout for the attribute: Bins uniform
// bins spanning [Lo - 4B, Lo + Delta + 4B]. The 4B pad keeps ~98% of the
// Laplace noise mass inside the range; privatized values outside it are
// clamped into the end bins by the collectors, so the histogram still sums
// to the column's non-NaN count. A degenerate span (constant column, B = 0)
// widens to unit width so edges stay strictly increasing. Returns nil when
// Bins == 0 (no released layout).
func (m NumericMeta) BinEdges() []float64 {
	if m.Bins <= 0 {
		return nil
	}
	lo := m.Lo - 4*m.B
	hi := m.Lo + m.Delta + 4*m.B
	if !(hi > lo) {
		hi = lo + 1
	}
	edges := make([]float64, m.Bins+1)
	width := (hi - lo) / float64(m.Bins)
	for i := 0; i <= m.Bins; i++ {
		edges[i] = lo + float64(i)*width
	}
	edges[m.Bins] = hi
	return edges
}

// ViewMeta is the metadata released alongside a private view V = GRR(R). The
// estimators in internal/estimator are parameterized by it.
type ViewMeta struct {
	Discrete map[string]DiscreteMeta
	Numeric  map[string]NumericMeta
	Rows     int
}

// TotalEpsilon composes the exact per-attribute privacy parameters into
// the relation-level eps (Theorem 1). Any non-randomized attribute (p == 0
// or b == 0 over a non-constant column) makes the total +Inf, reflecting
// that one non-private column de-privatizes the others.
func (v *ViewMeta) TotalEpsilon() float64 {
	// Sum in sorted order: in map order the total, and every artifact that
	// records it, could differ by an ulp from run to run.
	var terms []float64
	for _, m := range v.Discrete {
		terms = append(terms, m.Epsilon())
	}
	for _, m := range v.Numeric {
		terms = append(terms, m.Epsilon())
	}
	sort.Float64s(terms)
	total := 0.0
	for _, e := range terms {
		total += e
	}
	return total
}

// DiscreteFor returns the metadata for a discrete attribute.
func (v *ViewMeta) DiscreteFor(name string) (DiscreteMeta, error) {
	m, ok := v.Discrete[name]
	if !ok {
		return DiscreteMeta{}, fmt.Errorf("privacy: no discrete metadata for attribute %q", name)
	}
	return m, nil
}

// EpsilonDiscrete returns eps = ln(3/p - 2), the paper's Lemma 1 constant
// for randomized response with probability p. p == 0 gives +Inf and p == 1
// gives ln(1) = 0 (full randomization, perfect privacy).
//
// Caveat (documented in EXPERIMENTS.md): this is the exact epsilon for a
// 3-value domain. The exact epsilon grows with the domain size — see
// EpsilonDiscreteExact — so for N > 3 the Lemma 1 constant understates the
// true local-DP parameter. Only the paper reproductions (Tune, pc tune and
// pc epsilon's eps_lemma1 column, the tradeoff and real experiments) use
// it; every operator-facing epsilon is DiscreteMeta.Epsilon.
func EpsilonDiscrete(p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	return math.Log(3/p - 2)
}

// EpsilonDiscreteExact returns the exact local-DP parameter of GRR at
// probability p over a domain of n values:
//
//	eps = ln( (1 − p + p/n) / (p/n) ) = ln( n(1−p) + p ) − ln(p)
//
// It is increasing in n; EpsilonDiscrete equals it at n = 3. A domain of
// at most one value is released perfectly at any p, so its eps is 0, just
// as EpsilonNumeric is 0 for a constant column. The difference of logs
// stays finite for every p > 0, where the ratio would overflow for a
// subnormal p.
func EpsilonDiscreteExact(p float64, n int) float64 {
	if n <= 1 {
		return 0
	}
	if p <= 0 {
		return math.Inf(1)
	}
	return math.Log(float64(n)*(1-p)+p) - math.Log(p)
}

// PForEpsilon inverts EpsilonDiscrete: the randomization probability that
// achieves a given eps. eps must be >= 0.
func PForEpsilon(eps float64) (float64, error) {
	if eps < 0 || math.IsNaN(eps) {
		return 0, faults.Errorf(faults.ErrBadParams, "privacy: epsilon must be >= 0, got %v", eps)
	}
	if math.IsInf(eps, 1) {
		return 0, nil
	}
	return 3 / (math.Exp(eps) + 2), nil
}

// EpsilonNumeric returns eps = Delta / b, the local DP level of the Laplace
// mechanism with scale b on an attribute with range Delta (Proposition 1).
func EpsilonNumeric(delta, b float64) float64 {
	if b <= 0 {
		if delta == 0 {
			return 0 // constant column: any b is perfectly private
		}
		return math.Inf(1)
	}
	return delta / b
}

// BForEpsilon inverts EpsilonNumeric: the Laplace scale that achieves a
// given eps for an attribute of range delta.
func BForEpsilon(delta, eps float64) (float64, error) {
	if eps <= 0 || math.IsNaN(eps) {
		return 0, faults.Errorf(faults.ErrBadParams, "privacy: epsilon must be > 0, got %v", eps)
	}
	if delta < 0 || math.IsNaN(delta) || math.IsInf(delta, 0) {
		return 0, faults.Errorf(faults.ErrBadParams, "privacy: sensitivity must be finite and >= 0, got %v", delta)
	}
	return delta / eps, nil
}

// RandomizedResponse applies the discrete GRR mechanism to one column:
// each value is kept with probability 1-p and replaced with a uniform draw
// from domain with probability p. The input slice is not modified.
//
// The implementation is geometric skip-sampling (see resampleVisit): the RNG
// cost is one Float64 per resampled run plus one Intn per resample, not one
// Float64 per cell. The sampled distribution is unchanged, but the stream
// consumption differs from naive per-cell flips, so views released by older
// versions are not reproduced draw-for-draw.
func RandomizedResponse(rng Rand, col []string, domain []string, p float64) ([]string, error) {
	if err := checkGRR(p, len(domain), len(col)); err != nil {
		return nil, err
	}
	out := make([]string, len(col))
	copy(out, col)
	resampleVisit(rng, p, len(out), func(i int) { out[i] = domain[rng.Intn(len(domain))] })
	return out, nil
}

// Privatize applies GRR to a relation: randomized response with params.P[d]
// on every discrete attribute d and Laplace noise with scale params.B[a] on
// every numeric attribute a. It returns the private view V and the ViewMeta
// needed for query estimation. The source relation is not modified.
//
// Every attribute must have a parameter; a missing entry is an error rather
// than an implicit p=0/b=0, because a single non-randomized attribute
// silently de-privatizes the whole relation (Theorem 1's interpretation).
func Privatize(rng Rand, r *relation.Relation, params Params) (*relation.Relation, *ViewMeta, error) {
	meta, err := ViewMetaFor(r, params)
	if err != nil {
		return nil, nil, err
	}
	out, err := PrivatizeWithMeta(rng, r, meta)
	if err != nil {
		return nil, nil, err
	}
	return out, meta, nil
}

// PrivatizePreservingDomain applies GRR repeatedly until every discrete
// attribute's domain is fully visible in the private view, as Section 4.3
// prescribes ("the database can regenerate the private views until this is
// true"; the expected number of regenerations is 1/(1-alpha) when the
// Theorem 2 size bound holds). It gives up after maxAttempts and returns
// the last view with ErrDomainMasked.
//
// Regeneration conditions only on a public event (domain visibility), so it
// does not degrade the differential privacy guarantee beyond the usual
// rejection-sampling caveats discussed in the paper.
func PrivatizePreservingDomain(rng Rand, r *relation.Relation, params Params, maxAttempts int) (*relation.Relation, *ViewMeta, error) {
	if maxAttempts <= 0 {
		maxAttempts = 10
	}
	var lastView *relation.Relation
	var lastMeta *ViewMeta
	for attempt := 0; attempt < maxAttempts; attempt++ {
		v, meta, err := Privatize(rng, r, params)
		if err != nil {
			return nil, nil, err
		}
		lastView, lastMeta = v, meta
		ok := true
		for name, dm := range meta.Discrete {
			seen, err := v.Domain(name)
			if err != nil {
				return nil, nil, err
			}
			if len(seen) < dm.N() {
				ok = false
				break
			}
		}
		if ok {
			return v, meta, nil
		}
	}
	return lastView, lastMeta, ErrDomainMasked
}

// ErrDomainMasked reports that PrivatizePreservingDomain exhausted its
// attempts with at least one domain value masked. The returned view is
// still epsilon-private and usable; rare-value estimates may be degraded.
var ErrDomainMasked = fmt.Errorf("privacy: domain value masked after all regeneration attempts (dataset may be below the Theorem 2 size)")

// MinDatasetSize returns the Theorem 2 lower bound on the dataset size S
// required so that, with probability at least 1-alpha, every one of the N
// distinct values of a discrete attribute remains visible after randomized
// response with probability p:
//
//	S > (N/p) * log(p*N / alpha)
//
// For p == 0 no value can be masked and the bound is 0.
func MinDatasetSize(n int, p, alpha float64) (float64, error) {
	if n <= 0 {
		return 0, faults.Errorf(faults.ErrBadParams, "privacy: domain size must be > 0, got %d", n)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return 0, faults.Errorf(faults.ErrBadParams, "privacy: p %v out of [0,1]", p)
	}
	if alpha <= 0 || alpha >= 1 || math.IsNaN(alpha) {
		return 0, faults.Errorf(faults.ErrBadParams, "privacy: alpha %v out of (0,1)", alpha)
	}
	if p == 0 {
		return 0, nil
	}
	arg := p * float64(n) / alpha
	if arg <= 1 {
		return 0, nil
	}
	return float64(n) / p * math.Log(arg), nil
}

// DomainPreservationProb returns the union-bound lower bound from the proof
// of Theorem 2 on the probability that all N domain values remain visible in
// a private relation of size S:
//
//	P[all] >= 1 - p*(N-1)*(1 - p/N)^(S-1)
//
// The returned value is clamped to [0, 1].
func DomainPreservationProb(n, s int, p float64) float64 {
	if n <= 1 || p == 0 {
		return 1
	}
	if s <= 0 {
		return 0
	}
	lb := 1 - p*float64(n-1)*math.Pow(1-p/float64(n), float64(s-1))
	if lb < 0 {
		return 0
	}
	if lb > 1 {
		return 1
	}
	return lb
}

// CountErrorBound returns the Section 5.4 analytic bound on the error of any
// count-query fraction estimate at privacy level p over a relation of size
// S, with confidence 1-alpha:
//
//	error < z_alpha * (1/(1-p)) * sqrt(1/(4S))
//
// The bound is on the estimated *fraction* s; multiply by S for a bound on
// the count.
func CountErrorBound(s int, p, confidence float64) (float64, error) {
	if s <= 0 {
		return 0, faults.Errorf(faults.ErrBadParams, "privacy: dataset size must be > 0, got %d", s)
	}
	if p < 0 || p >= 1 || math.IsNaN(p) {
		return 0, faults.Errorf(faults.ErrBadParams, "privacy: p %v out of [0,1)", p)
	}
	z, err := stats.ZScore(confidence)
	if err != nil {
		return 0, err
	}
	return z / (1 - p) * math.Sqrt(1/(4*float64(s))), nil
}

// Tune implements the Appendix E parameter-tuning algorithm over a summary
// of the input: its schema, its row count S, and each numeric attribute's
// max-min range Delta_j (absent or 0 when it has none), as Summarize or a
// csvio.Profile gives them. Given a target maximum error for any count-query
// fraction estimate and the confidence level 1-alpha, it returns GRR
// parameters:
//
//  1. p = 1 - z_alpha * sqrt(1 / (4*S*error^2)) for every discrete
//     attribute, and
//  2. b_j = Delta_j / (ln(3/p) - 2) for every numeric attribute j.
//
// If the requested error is so small that the formula yields p <= 0, the
// dataset is too small for the target and an error is returned.
func Tune(schema relation.Schema, s int, deltas map[string]float64, targetError, confidence float64) (Params, error) {
	if s <= 0 {
		return Params{}, faults.Errorf(faults.ErrBadInput, "privacy: cannot tune on an empty relation")
	}
	if targetError <= 0 || math.IsNaN(targetError) {
		return Params{}, faults.Errorf(faults.ErrBadParams, "privacy: target error must be > 0, got %v", targetError)
	}
	z, err := stats.ZScore(confidence)
	if err != nil {
		return Params{}, err
	}
	p := 1 - z*math.Sqrt(1/(4*float64(s)*targetError*targetError))
	if p <= 0 {
		return Params{}, faults.Errorf(faults.ErrBadParams, "privacy: dataset of %d rows cannot meet count error %v at confidence %v (need p > 0, got %v)",
			s, targetError, confidence, p)
	}
	if p > 1 {
		p = 1
	}
	params := Params{P: make(map[string]float64), B: make(map[string]float64)}
	for _, name := range schema.DiscreteNames() {
		params.P[name] = p
	}
	denom := math.Log(3/p) - 2
	for _, name := range schema.NumericNames() {
		delta := deltas[name]
		if denom <= 0 {
			// ln(3/p) <= 2 means the Appendix E formula degenerates (it
			// targets small p); fall back to matching the discrete eps.
			eps := EpsilonDiscrete(p)
			if math.IsInf(eps, 1) || eps <= 0 {
				return Params{}, fmt.Errorf("privacy: cannot derive laplace scale for %q at p=%v", name, p)
			}
			params.B[name] = delta / eps
			continue
		}
		params.B[name] = delta / denom
	}
	return params, nil
}
