package privacy

// This file maps the discrete mechanism names onto the one channel this
// package randomizes with. The paper's GRR resamples a value uniformly over
// the full n-value domain with probability p, so it keeps the value with
// probability 1 - p + p/n and moves it to each other value with p/n. Two
// designs from the local-DP literature are the same symmetric channel under
// another parameter:
//
//   - k-RR (Kairouz et al.) at p' keeps with 1 - p' and moves to each other
//     value with p'/(n-1): GRR at p = p'·n/(n-1);
//   - Holohan et al.'s optimal binary design flips a 2-value attribute with
//     probability p': GRR at p = 2p'.
//
// Metadata records the name and p' as written, so fingerprints and
// parameter hashes keep their inputs; GRRP maps them to GRR's p, and every
// channel, sampler and epsilon reads the mapped value.

import (
	"errors"
	"math"

	"privateclean/internal/faults"
)

// Canonical mechanism names. The empty string means MechGRR everywhere a
// mechanism name is read (metadata predating the names carries none).
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

// ErrUnknownMechanism reports a mechanism name this package does not know.
// Collectors reject such metadata with a typed error rather than guessing
// inversion constants.
var ErrUnknownMechanism = errors.New("unknown mechanism")

// MechanismByName reports whether name is a known mechanism; the empty
// string is GRR. An unknown name returns an error satisfying both
// errors.Is(err, ErrUnknownMechanism) and errors.Is(err, faults.ErrBadMeta).
func MechanismByName(name string) error {
	_, err := GRRP(name, 0, 2)
	return err
}

// MechanismNames lists the known mechanism names in canonical order.
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

// GRRP maps a mechanism name and its probability p, as written in metadata,
// to the GRR resampling probability that realizes the same channel over an
// n-value domain. For GRR it returns p itself, with no arithmetic, so every
// GRR channel constant, draw and epsilon is the one computed from the
// written p. A k-RR domain below 2 values has no other value to move to;
// its channel is the identity at any p, and so is GRR's, so p passes
// through.
func GRRP(name string, p float64, n int) (float64, error) {
	switch name {
	case "", MechGRR:
		return p, nil
	case MechKRR:
		if n < 2 {
			return p, nil
		}
		// p' = (n-1)/n, the largest admissible k-RR p, can round one ulp
		// above 1 here.
		return math.Min(1, p*float64(n)/float64(n-1)), nil
	case MechRRBin:
		return 2 * p, nil
	default:
		return 0, faults.Errorf(faults.ErrBadMeta, "privacy: %w %q (known: %s, %s, %s)",
			ErrUnknownMechanism, name, MechGRR, MechKRR, MechRRBin)
	}
}

// checkP reports whether p, as written, is admissible for the named
// mechanism over an n-value domain. Every mechanism needs p in [0, 1]; k-RR
// needs n >= 2 and p <= (n-1)/n, and binary RR needs n == 2 and p <= 1/2,
// beyond which the mapped GRR p would exceed 1 (the channel would
// anti-correlate). The name must already be known.
func checkP(name string, p float64, n int) error {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return faults.Errorf(faults.ErrBadParams, "privacy: randomization probability %v out of [0,1]", p)
	}
	switch name {
	case MechKRR:
		if n < 2 {
			return faults.Errorf(faults.ErrBadParams, "privacy: krr needs a domain of >= 2 values, got %d", n)
		}
		if max := float64(n-1) / float64(n); p > max {
			return faults.Errorf(faults.ErrBadParams, "privacy: krr randomization probability %v exceeds (n-1)/n = %v (the channel would anti-correlate)", p, max)
		}
	case MechRRBin:
		if n != 2 {
			return faults.Errorf(faults.ErrBadParams, "privacy: rrbin needs a domain of exactly 2 values, got %d", n)
		}
		if p > 0.5 {
			return faults.Errorf(faults.ErrBadParams, "privacy: rrbin flip probability %v exceeds 1/2 (the channel would anti-correlate)", p)
		}
	}
	return nil
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

// Channel returns GRR's inversion constants at resampling probability p
// for a predicate covering l of the n domain values: tauN = p*l/n, the
// probability that a row outside the predicate reports into it, and denom
// = 1-p = tauP - tauN, the signal the estimator divides by. denom <= 0
// means the channel carries no invertible signal. The float expressions
// are the ones the estimators have always used, so GRR estimates stay
// bit-identical; other mechanisms pass GRRP's mapped p.
func Channel(p float64, n int, l float64) (tauN, denom float64) {
	return p * l / float64(n), 1 - p
}
