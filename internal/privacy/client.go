package privacy

// Client-side GRR: the inverse deployment of Privatize. Instead of the data
// provider randomizing a resident relation, each client randomizes its own
// record locally (the local-differential-privacy model of Kairouz et al.)
// and ships only the randomized report to a collector. The mechanism — the
// per-attribute randomization probability, domain, and Laplace scale — is
// public and must be identical across every client feeding one collection,
// so reports carry a fingerprint of it and the collector rejects mismatches.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
	"privateclean/internal/stats"
	"privateclean/internal/telemetry"
)

// Report is one locally randomized record as it travels to a collector.
// Discrete attributes always carry a (randomized) value; numeric attributes
// are absent when the client's cell was missing (the batch pipeline's NaN),
// because JSON has no NaN and the estimators skip missing cells anyway.
type Report struct {
	Discrete map[string]string  `json:"discrete,omitempty"`
	Numeric  map[string]float64 `json:"numeric,omitempty"`
}

// MechanismFingerprint returns the SHA-256 of a canonical rendering of the
// mechanism parameters: a format-version component, then attributes in
// sorted order — discrete attributes with (mechanism name, p, domain),
// numeric attributes with (b, delta). Rows is excluded — it describes one
// dataset, not the channel. Two metas fingerprint equal iff they induce the
// same randomization channel.
//
// Every component is length-prefixed ("<len>:<bytes>"), which makes the
// rendering injective: a domain ["a|b"] cannot canonicalize like ["a","b"],
// and names or values containing any delimiter byte cannot forge another
// mechanism's rendering. The mechanism name is itself a component — always
// spelled out, "grr" included — so GRR and k-RR over identical (p, domain)
// never share a fingerprint. Without that, two channels that randomize
// differently could share a fingerprint, and the collector's mechanism
// pinning would let them mix — corrupting the estimator inversion the
// pinning exists to protect.
//
// Format v2 ("pcfp2"): v1 carried neither the version nor the mechanism
// component, so every fingerprint changed when mechanism names landed —
// collectors pin the fingerprint in their checkpoint and refuse to append
// v2-randomized batches to a v1-pinned store (see docs/COLLECT.md).
func MechanismFingerprint(meta *ViewMeta) string {
	var sb strings.Builder
	comp := func(s string) {
		sb.WriteString(strconv.Itoa(len(s)))
		sb.WriteByte(':')
		sb.WriteString(s)
	}
	comp("pcfp2")
	sb.WriteByte('\n')
	names := make([]string, 0, len(meta.Discrete))
	for name := range meta.Discrete {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dm := meta.Discrete[name]
		sb.WriteString("d|")
		comp(name)
		comp(CanonicalMechanismName(dm.Mechanism))
		comp(strconv.FormatFloat(dm.P, 'g', -1, 64))
		for _, v := range dm.Domain {
			comp(v)
		}
		sb.WriteByte('\n')
	}
	names = names[:0]
	for name := range meta.Numeric {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		nm := meta.Numeric[name]
		sb.WriteString("n|")
		comp(name)
		comp(strconv.FormatFloat(nm.B, 'g', -1, 64))
		comp(strconv.FormatFloat(nm.Delta, 'g', -1, 64))
		sb.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// Record is one raw client row awaiting local randomization.
type Record struct {
	Discrete map[string]string
	Numeric  map[string]float64
}

// PrivatizeRecords randomizes a batch of records under a "client_randomize"
// span (a child of parent when given) and a latency histogram — the first
// hop of the traced pipeline. Record i draws from StreamRand(baseSeed,
// start+i), so the output is byte-identical to calling PrivatizeRecord in a
// loop with the same global row indices: batching is an observability
// boundary, not a randomness one. The span records only counts and
// durations; raw cells, seeds, and reports never touch it.
func PrivatizeRecords(tel *telemetry.Set, parent *telemetry.Span, baseSeed int64, start int, meta *ViewMeta, recs []Record) ([]Report, error) {
	if tel == nil {
		tel = telemetry.Default()
	}
	sp := tel.Trace.StartSpan(parent, "client_randomize", telemetry.A("rows", len(recs)))
	defer sp.End()
	t0 := time.Now()
	defer func() {
		tel.Metrics.Histogram("privateclean_client_randomize_seconds",
			"Wall time of locally randomizing one batch of records.",
			telemetry.DurationBuckets).Observe(time.Since(t0).Seconds())
	}()
	reports := make([]Report, 0, len(recs))
	for i, rec := range recs {
		rep, err := PrivatizeRecord(StreamRand(baseSeed, start+i), meta, rec.Discrete, rec.Numeric)
		if err != nil {
			sp.Set("err", err)
			return nil, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// PrivatizeRecord randomizes one client record under the mechanism meta
// describes, returning the report to ship. Attributes are processed in
// sorted-name order (discrete first, then numeric), so the RNG consumption
// for a record is a pure function of the mechanism — per-record seeded
// streams (StreamRand) reproduce reports exactly.
//
// Every discrete attribute of the mechanism is randomized by GRR at the
// mapped p (GRRP): at most one Float64 and, on resample, one Intn. A value
// outside the released domain is refused with faults.ErrBadInput before any
// draw: no in-domain input can produce it, so shipping it would void the
// attribute's epsilon. A missing cell is treated as relation.Null, exactly
// like a NULL cell in the batch path; when the released domain holds no
// NULL, it is reported as a uniform draw from the domain instead. Numeric
// cells receive Laplace(b) noise; missing (absent or NaN) numeric cells stay
// missing and consume no draw. Attributes in the input that the mechanism
// does not cover are an error — shipping an un-randomized value would breach
// the local-DP contract.
func PrivatizeRecord(rng Rand, meta *ViewMeta, discrete map[string]string, numeric map[string]float64) (Report, error) {
	for name := range discrete {
		if _, ok := meta.Discrete[name]; !ok {
			return Report{}, faults.Errorf(faults.ErrBadParams, "privacy: no mechanism for discrete attribute %q; refusing to ship it raw", name)
		}
	}
	for name := range numeric {
		if _, ok := meta.Numeric[name]; !ok {
			return Report{}, faults.Errorf(faults.ErrBadParams, "privacy: no mechanism for numeric attribute %q; refusing to ship it raw", name)
		}
	}
	rep := Report{}
	if len(meta.Discrete) > 0 {
		rep.Discrete = make(map[string]string, len(meta.Discrete))
	}
	names := make([]string, 0, len(meta.Discrete))
	for name := range meta.Discrete {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dm := meta.Discrete[name]
		n := len(dm.Domain)
		if n == 0 {
			return Report{}, faults.Errorf(faults.ErrBadMeta, "privacy: empty domain for discrete attribute %q", name)
		}
		if err := checkP(dm.Mechanism, dm.P, n); err != nil {
			return Report{}, fmt.Errorf("privacy: attribute %q: %w", name, err)
		}
		p, err := dm.GRRP()
		if err != nil {
			return Report{}, err
		}
		v, given := discrete[name]
		if !given {
			v = relation.Null
		}
		if i := sort.SearchStrings(dm.Domain, v); i == n || dm.Domain[i] != v {
			if given {
				return Report{}, faults.Errorf(faults.ErrBadInput, "privacy: attribute %q: value %q not in the released domain", name, v)
			}
			// A missing cell outside a NULL-free domain has nothing to
			// keep: report a uniform draw, which carries nothing about it.
			rep.Discrete[name] = dm.Domain[rng.Intn(n)]
			continue
		}
		if p > 0 && rng.Float64() < p {
			v = dm.Domain[rng.Intn(n)]
		}
		rep.Discrete[name] = v
	}
	names = names[:0]
	for name := range meta.Numeric {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		nm := meta.Numeric[name]
		if nm.B < 0 || math.IsNaN(nm.B) || math.IsInf(nm.B, 0) {
			return Report{}, faults.Errorf(faults.ErrBadParams, "privacy: laplace scale %v must be finite and >= 0", nm.B)
		}
		x, ok := numeric[name]
		if !ok || math.IsNaN(x) {
			continue
		}
		if math.IsInf(x, 0) {
			return Report{}, faults.Errorf(faults.ErrBadInput, "privacy: non-finite numeric cell for attribute %q", name)
		}
		if rep.Numeric == nil {
			rep.Numeric = make(map[string]float64, len(meta.Numeric))
		}
		rep.Numeric[name] = stats.Laplace(rng, x, nm.B)
	}
	return rep, nil
}
