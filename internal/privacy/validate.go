package privacy

import (
	"fmt"
	"math"
	"sort"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
)

// Validate checks GRR parameters against a schema before any randomness is
// spent: every discrete attribute needs p ∈ [0,1] and every numeric
// attribute a finite, non-negative Laplace scale.
//
// In strict mode — the hardened pipeline and the CLI — a zero scale and
// p == 0 are also rejected: both mean "release this column untouched", which
// makes the composed epsilon +Inf (Theorem 1) and silently de-privatizes the
// whole relation. The library entry points stay permissive because the
// experiment harness deliberately explores the no-noise corner.
func (params Params) Validate(schema relation.Schema, strict bool) error {
	if err := MechanismByName(params.Mechanism); err != nil {
		return faults.Wrap(faults.ErrBadParams, err)
	}
	for _, name := range schema.DiscreteNames() {
		p, ok := params.P[name]
		if !ok {
			return faults.Errorf(faults.ErrBadParams, "privacy: no randomization probability for discrete attribute %q", name)
		}
		if math.IsNaN(p) || p < 0 || p > 1 {
			return faults.Errorf(faults.ErrBadParams, "privacy: attribute %q: randomization probability %v out of [0,1]", name, p)
		}
		if strict && p == 0 {
			return faults.Errorf(faults.ErrBadParams, "privacy: attribute %q: p = 0 releases the column unrandomized (total epsilon becomes +Inf)", name)
		}
	}
	for _, name := range schema.NumericNames() {
		b, ok := params.B[name]
		if !ok {
			return faults.Errorf(faults.ErrBadParams, "privacy: no laplace scale for numeric attribute %q", name)
		}
		if math.IsNaN(b) || math.IsInf(b, 0) || b < 0 {
			return faults.Errorf(faults.ErrBadParams, "privacy: attribute %q: laplace scale %v must be finite and >= 0", name, b)
		}
		if strict && b == 0 {
			return faults.Errorf(faults.ErrBadParams, "privacy: attribute %q: b = 0 releases the column unperturbed (total epsilon becomes +Inf)", name)
		}
	}
	return nil
}

// Validate checks released view metadata after decoding. The metadata file
// crosses the provider/analyst boundary as JSON, so a corrupted or
// hand-edited file must be caught before its parameters reach an estimator:
// an out-of-range p silently corrupts every bias correction built from it.
// Failures are classified as faults.ErrBadMeta.
func (v *ViewMeta) Validate() error {
	if v.Rows < 0 {
		return faults.Errorf(faults.ErrBadMeta, "privacy: metadata row count %d is negative", v.Rows)
	}
	for key, m := range v.Discrete {
		if m.Name != "" && m.Name != key {
			return faults.Errorf(faults.ErrBadMeta, "privacy: discrete metadata key %q names attribute %q", key, m.Name)
		}
		if math.IsNaN(m.P) || m.P < 0 || m.P > 1 {
			return faults.Errorf(faults.ErrBadMeta, "privacy: attribute %q: randomization probability %v out of [0,1]", key, m.P)
		}
		if len(m.Domain) == 0 && v.Rows > 0 {
			return faults.Errorf(faults.ErrBadMeta, "privacy: attribute %q: empty domain for a %d-row view", key, v.Rows)
		}
		if !sort.StringsAreSorted(m.Domain) {
			return faults.Errorf(faults.ErrBadMeta, "privacy: attribute %q: domain is not sorted", key)
		}
		for i := 1; i < len(m.Domain); i++ {
			if m.Domain[i] == m.Domain[i-1] {
				return faults.Errorf(faults.ErrBadMeta, "privacy: attribute %q: duplicate domain value %q", key, m.Domain[i])
			}
		}
		if err := MechanismByName(m.Mechanism); err != nil {
			// Already classified ErrBadMeta (and ErrUnknownMechanism);
			// collectors branch on both.
			return fmt.Errorf("privacy: attribute %q: %w", key, err)
		}
		if len(m.Domain) > 0 {
			if err := checkP(m.Mechanism, m.P, m.N()); err != nil {
				return fmt.Errorf("privacy: attribute %q: %w", key, faults.Wrap(faults.ErrBadMeta, err))
			}
		}
	}
	for key, m := range v.Numeric {
		if m.Name != "" && m.Name != key {
			return faults.Errorf(faults.ErrBadMeta, "privacy: numeric metadata key %q names attribute %q", key, m.Name)
		}
		if math.IsNaN(m.B) || math.IsInf(m.B, 0) || m.B < 0 {
			return faults.Errorf(faults.ErrBadMeta, "privacy: attribute %q: laplace scale %v must be finite and >= 0", key, m.B)
		}
		if math.IsNaN(m.Delta) || math.IsInf(m.Delta, 0) || m.Delta < 0 {
			return faults.Errorf(faults.ErrBadMeta, "privacy: attribute %q: sensitivity %v must be finite and >= 0", key, m.Delta)
		}
	}
	return nil
}
