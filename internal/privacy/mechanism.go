package privacy

// This file is the pluggable discrete-mechanism registry. The paper's GRR
// (resample uniformly over the full domain) is one point in the local-DP
// design space: Kairouz et al. show k-RR (resample over the *other* n-1
// values) dominates for small domains, and Holohan et al. give the optimal
// binary design. Each mechanism owns its randomization (batch, code, and
// per-record client paths), its exact eps(p, n), its inversion constants
// (the tau_p/tau_n generalization the estimators read), and its identity
// inside MechanismFingerprint and pipeline checkpoints.
//
// GRR is the default (an empty mechanism name in metadata) and its code
// paths delegate to the original implementations unchanged, so views,
// checkpoints, and estimates released before this file existed are
// reproduced bit-for-bit.

import (
	"errors"
	"math"
	"sort"

	"privateclean/internal/faults"
)

// Canonical mechanism names. The empty string means MechGRR everywhere a
// mechanism name is read (metadata predating the registry carries none).
const (
	// MechGRR resamples uniformly over the full n-value domain with
	// probability p (the paper's Section 4.2.1 mechanism).
	MechGRR = "grr"
	// MechKRR resamples uniformly over the other n-1 values with
	// probability p (Kairouz et al.'s k-ary randomized response).
	MechKRR = "krr"
	// MechRRBin flips to the other value of a 2-value domain with
	// probability p (Holohan et al.'s optimal binary design).
	MechRRBin = "rrbin"
)

// ErrUnknownMechanism reports a mechanism name the registry does not know.
// Collectors reject such metadata with a typed error rather than guessing
// inversion constants.
var ErrUnknownMechanism = errors.New("unknown mechanism")

// DiscreteMech is one discrete local-DP mechanism. Implementations are
// stateless; all parameters travel in (p, n) so the same instance serves
// every attribute.
type DiscreteMech interface {
	// Tag returns the RNG draw-pattern tag recorded in pipeline
	// checkpoints: resuming under a different tag would splice two
	// incompatible randomness streams into one view.
	Tag() string
	// Validate reports whether (p, n) is admissible for this mechanism.
	Validate(p float64, n int) error
	// Epsilon returns the exact local-DP parameter at (p, n).
	Epsilon(p float64, n int) float64
	// Channel returns the inversion constants for a predicate covering l
	// of the n domain values: tauN = P[output matches | input does not]
	// and denom = tauP - tauN, the signal the estimator divides by.
	// denom <= 0 means the channel carries no invertible signal.
	Channel(p float64, n int, l float64) (tauN, denom float64)
	// RandomizeInPlace randomizes a string column in place.
	RandomizeInPlace(rng Rand, col []string, domain []string, p float64) error
	// RandomizeValue randomizes one client-held value (the per-record
	// local path used by PrivatizeRecord).
	RandomizeValue(rng Rand, v string, domain []string, p float64) (string, error)
}

// MechanismByName resolves a mechanism name; the empty string resolves to
// GRR. Unknown names return an error satisfying both
// errors.Is(err, ErrUnknownMechanism) and errors.Is(err, faults.ErrBadMeta).
func MechanismByName(name string) (DiscreteMech, error) {
	switch name {
	case "", MechGRR:
		return grrMech{}, nil
	case MechKRR:
		return krrMech{}, nil
	case MechRRBin:
		return rrbinMech{}, nil
	default:
		return nil, faults.Errorf(faults.ErrBadMeta, "privacy: %w %q (known: %s, %s, %s)",
			ErrUnknownMechanism, name, MechGRR, MechKRR, MechRRBin)
	}
}

// MechanismNames lists the registered mechanism names in canonical order.
func MechanismNames() []string { return []string{MechGRR, MechKRR, MechRRBin} }

// CanonicalMechanismName maps the empty string to MechGRR and leaves every
// other name unchanged. Fingerprints and disclosures always spell the name
// out so that renaming the default can never silently re-pin a channel.
func CanonicalMechanismName(name string) string {
	if name == "" {
		return MechGRR
	}
	return name
}

// PForEpsilonExact inverts EpsilonDiscreteExact: the GRR randomization
// probability achieving a given exact eps over a domain of n values,
//
//	p = n / (e^eps - 1 + n)
//
// The result is always in (0, 1]: eps = 0 gives p = 1 (full randomization,
// perfect privacy) and p decreases toward 0 as eps grows. PForEpsilon is
// the fixed n = 3 (Lemma 1) form of this inversion.
func PForEpsilonExact(eps float64, n int) (float64, error) {
	if eps < 0 || math.IsNaN(eps) {
		return 0, faults.Errorf(faults.ErrBadParams, "privacy: epsilon must be >= 0, got %v", eps)
	}
	if n < 2 {
		return 0, faults.Errorf(faults.ErrBadParams, "privacy: domain size must be >= 2, got %d", n)
	}
	if math.IsInf(eps, 1) {
		return 0, nil
	}
	p := float64(n) / (math.Exp(eps) - 1 + float64(n))
	if !(p > 0 && p <= 1) {
		return 0, faults.Errorf(faults.ErrBadParams, "privacy: inverted p %v out of (0,1] for eps=%v n=%d", p, eps, n)
	}
	return p, nil
}

// ---------------------------------------------------------------------------
// GRR: resample uniformly over the full domain (the paper's mechanism).

type grrMech struct{}

// Tag must stay exactly "grr-skip/2": it is the checkpoint RNG-pattern tag
// every pre-registry checkpoint carries (one geometric gap draw per
// resampled run plus one Intn per resample; see resampleVisit).
func (grrMech) Tag() string { return "grr-skip/2" }

func (grrMech) Validate(p float64, n int) error {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return faults.Errorf(faults.ErrBadParams, "privacy: randomization probability %v out of [0,1]", p)
	}
	return nil
}

func (grrMech) Epsilon(p float64, n int) float64 { return EpsilonDiscreteExact(p, n) }

// Channel returns tauN = p*l/n and denom = 1-p with exactly the float
// expressions the estimators used before the registry existed, so GRR
// estimates stay bit-identical.
func (grrMech) Channel(p float64, n int, l float64) (tauN, denom float64) {
	return p * l / float64(n), 1 - p
}

func (grrMech) RandomizeInPlace(rng Rand, col []string, domain []string, p float64) error {
	return RandomizedResponseInPlace(rng, col, domain, p)
}

// RandomizeValue reproduces the original PrivatizeRecord draw pattern
// exactly: at most one Float64 and, on resample, one Intn.
func (grrMech) RandomizeValue(rng Rand, v string, domain []string, p float64) (string, error) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return "", faults.Errorf(faults.ErrBadParams, "privacy: randomization probability %v out of [0,1]", p)
	}
	if len(domain) == 0 {
		return "", faults.Errorf(faults.ErrBadInput, "privacy: empty domain")
	}
	if p > 0 && rng.Float64() < p {
		v = domain[rng.Intn(len(domain))]
	}
	return v, nil
}

// ---------------------------------------------------------------------------
// k-RR: resample uniformly over the *other* n-1 values (Kairouz et al.).

type krrMech struct{}

// Tag documents the k-RR RNG pattern: one geometric gap draw per resampled
// run plus one Intn(n-1) per resample (the exclusion shift consumes no
// extra draw).
func (krrMech) Tag() string { return "krr-skip/2" }

func (krrMech) Validate(p float64, n int) error {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return faults.Errorf(faults.ErrBadParams, "privacy: randomization probability %v out of [0,1]", p)
	}
	if n < 2 {
		return faults.Errorf(faults.ErrBadParams, "privacy: krr needs a domain of >= 2 values, got %d", n)
	}
	if max := float64(n-1) / float64(n); p > max {
		return faults.Errorf(faults.ErrBadParams, "privacy: krr randomization probability %v exceeds (n-1)/n = %v (the channel would anti-correlate)", p, max)
	}
	return nil
}

// Epsilon returns ln((1-p)(n-1)/p): the likelihood ratio between keeping a
// value (probability 1-p) and landing on it from any other input
// (probability p/(n-1)).
func (krrMech) Epsilon(p float64, n int) float64 {
	if p <= 0 || n < 2 {
		return math.Inf(1)
	}
	return math.Log((1 - p) * float64(n-1) / p)
}

// Channel: a non-matching row lands in a predicate covering l values with
// probability p*l/(n-1); a matching row stays in it with probability
// (1-p) + p*(l-1)/(n-1), so denom = tauP - tauN = 1 - p*n/(n-1).
func (krrMech) Channel(p float64, n int, l float64) (tauN, denom float64) {
	return p * l / float64(n-1), 1 - p*float64(n)/float64(n-1)
}

func (k krrMech) RandomizeInPlace(rng Rand, col []string, domain []string, p float64) error {
	if err := k.Validate(p, len(domain)); err != nil && len(col) > 0 {
		return err
	}
	if len(domain) == 0 && len(col) > 0 {
		return faults.Errorf(faults.ErrBadInput, "privacy: empty domain for non-empty column")
	}
	n := len(domain)
	var firstErr error
	resampleVisit(rng, p, len(col), func(i int) {
		j := rng.Intn(n - 1)
		cur := sort.SearchStrings(domain, col[i])
		if cur >= n || domain[cur] != col[i] {
			if firstErr == nil {
				firstErr = faults.Errorf(faults.ErrBadInput, "privacy: value %q not in the recorded domain", col[i])
			}
			return
		}
		// Exclusion shift: j indexes the n-1 values other than cur.
		if j >= cur {
			j++
		}
		col[i] = domain[j]
	})
	return firstErr
}

func (k krrMech) RandomizeValue(rng Rand, v string, domain []string, p float64) (string, error) {
	if err := k.Validate(p, len(domain)); err != nil {
		return "", err
	}
	n := len(domain)
	cur := sort.SearchStrings(domain, v)
	if cur >= n || domain[cur] != v {
		return "", faults.Errorf(faults.ErrBadInput, "privacy: value %q not in the recorded domain", v)
	}
	if p > 0 && rng.Float64() < p {
		j := rng.Intn(n - 1)
		if j >= cur {
			j++
		}
		v = domain[j]
	}
	return v, nil
}

// ---------------------------------------------------------------------------
// rrbin: optimal binary randomized response (Holohan et al.). Defined only
// for 2-value domains; a resample deterministically flips to the other
// value, so the flip itself consumes no Intn draw.

type rrbinMech struct{}

// Tag documents the rrbin RNG pattern: geometric gap draws only — the flip
// target is deterministic.
func (rrbinMech) Tag() string { return "rrbin-skip/1" }

func (rrbinMech) Validate(p float64, n int) error {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return faults.Errorf(faults.ErrBadParams, "privacy: randomization probability %v out of [0,1]", p)
	}
	if n != 2 {
		return faults.Errorf(faults.ErrBadParams, "privacy: rrbin needs a domain of exactly 2 values, got %d", n)
	}
	if p > 0.5 {
		return faults.Errorf(faults.ErrBadParams, "privacy: rrbin flip probability %v exceeds 1/2 (the channel would anti-correlate)", p)
	}
	return nil
}

// Epsilon returns ln((1-p)/p), the binary randomized-response likelihood
// ratio.
func (rrbinMech) Epsilon(p float64, n int) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	return math.Log((1 - p) / p)
}

// Channel: with two values, a predicate covers l in {0, 1, 2} of them; a
// non-matching row flips into it with probability p*l and the invertible
// signal is denom = 1 - 2p.
func (rrbinMech) Channel(p float64, n int, l float64) (tauN, denom float64) {
	return p * l, 1 - 2*p
}

func (b rrbinMech) RandomizeInPlace(rng Rand, col []string, domain []string, p float64) error {
	if err := b.Validate(p, len(domain)); err != nil && len(col) > 0 {
		return err
	}
	if len(col) == 0 {
		return nil
	}
	v0, v1 := domain[0], domain[1]
	var firstErr error
	resampleVisit(rng, p, len(col), func(i int) {
		switch col[i] {
		case v0:
			col[i] = v1
		case v1:
			col[i] = v0
		default:
			if firstErr == nil {
				firstErr = faults.Errorf(faults.ErrBadInput, "privacy: value %q not in the recorded domain", col[i])
			}
		}
	})
	return firstErr
}

func (b rrbinMech) RandomizeValue(rng Rand, v string, domain []string, p float64) (string, error) {
	if err := b.Validate(p, len(domain)); err != nil {
		return "", err
	}
	var other string
	switch v {
	case domain[0]:
		other = domain[1]
	case domain[1]:
		other = domain[0]
	default:
		return "", faults.Errorf(faults.ErrBadInput, "privacy: value %q not in the recorded domain", v)
	}
	if p > 0 && rng.Float64() < p {
		v = other
	}
	return v, nil
}
