// Package core is PrivateClean's end-to-end facade, wiring the substrates
// into the workflow of the paper:
//
//   - A trusted Provider holds the original (dirty, non-private) relation R
//     and releases an ε-locally-differentially-private view V = GRR(R)
//     together with the mechanism metadata (Section 4).
//   - An untrusted Analyst receives the view, applies deterministic cleaning
//     operations (Extract / Transform / Merge, Section 3.2.1) — with value
//     provenance recorded automatically — and runs sum/count/avg queries,
//     obtaining both the naive Direct result and the bias-corrected
//     PrivateClean estimate with confidence intervals (Sections 5–7).
//
// A minimal session looks like:
//
//	provider := core.NewProvider(r)
//	view, err := provider.Release(rng, privacy.Uniform(r.Schema(), 0.1, 10))
//	analyst := core.NewAnalyst(view)
//	err = analyst.Clean(cleaning.FindReplace{Attr: "major", From: "Mech. Eng.", To: "Mechanical Engineering"})
//	res, err := analyst.Query("SELECT avg(score) FROM R WHERE major = 'Mechanical Engineering'")
package core

import (
	"fmt"
	"strings"

	"privateclean/internal/cleaning"
	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/provenance"
	"privateclean/internal/query"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

// Provider is the trusted owner of the original relation.
type Provider struct {
	rel *relation.Relation
}

// NewProvider wraps the original relation R. The relation is not copied;
// Release clones it before randomizing.
func NewProvider(rel *relation.Relation) *Provider {
	return &Provider{rel: rel}
}

// View is a released private relation together with the mechanism metadata
// the analyst needs for estimation.
type View struct {
	Rel  *relation.Relation
	Meta *privacy.ViewMeta
}

// Epsilon returns the view's total local differential privacy parameter
// (Theorem 1 composition).
func (v *View) Epsilon() float64 { return v.Meta.TotalEpsilon() }

// Release applies GRR with the given parameters and returns the private
// view. The provider's relation is unchanged.
func (p *Provider) Release(rng privacy.Rand, params privacy.Params) (*View, error) {
	priv, meta, err := privacy.Privatize(rng, p.rel, params)
	if err != nil {
		return nil, err
	}
	return &View{Rel: priv, Meta: meta}, nil
}

// ReleaseParallel applies GRR with deterministic per-shard RNG streams and
// a bounded worker pool (privacy.PrivatizeParallel): the released view is a
// pure function of (seed, relation, params), byte-identical for any worker
// count. workers <= 0 means runtime.GOMAXPROCS(0). Note the stream layout
// differs from Release with a single rng seeded the same way, so the two
// entry points produce different (equally private) views.
func (p *Provider) ReleaseParallel(seed int64, params privacy.Params, workers int) (*View, error) {
	priv, meta, err := privacy.PrivatizeParallel(seed, p.rel, params, workers)
	if err != nil {
		return nil, err
	}
	return &View{Rel: priv, Meta: meta}, nil
}

// ReleaseTuned derives GRR parameters from a target count-query error via
// the Appendix E tuning algorithm, then releases the view.
func (p *Provider) ReleaseTuned(rng privacy.Rand, targetError, confidence float64) (*View, privacy.Params, error) {
	params, err := privacy.Tune(p.rel, targetError, confidence)
	if err != nil {
		return nil, privacy.Params{}, err
	}
	view, err := p.Release(rng, params)
	if err != nil {
		return nil, privacy.Params{}, err
	}
	return view, params, nil
}

// MinSize returns the Theorem 2 bound on the dataset size needed so that a
// discrete attribute's domain survives randomization with probability
// 1-alpha at randomization probability p.
func (p *Provider) MinSize(attr string, prob, alpha float64) (float64, error) {
	n, err := p.rel.DomainSize(attr)
	if err != nil {
		return 0, err
	}
	return privacy.MinDatasetSize(n, prob, alpha)
}

// Analyst operates on a private view: cleaning with provenance, and query
// estimation.
type Analyst struct {
	rel        *relation.Relation
	meta       *privacy.ViewMeta
	prov       *provenance.Store
	udfs       query.UDFs
	confidence float64
	tel        *telemetry.Set
}

// NewAnalyst starts an analysis session over a view. The view's relation is
// cloned so the session owns its copy.
func NewAnalyst(view *View) *Analyst {
	return &Analyst{
		rel:        view.Rel.Clone(),
		meta:       view.Meta,
		prov:       provenance.NewStore(),
		udfs:       make(query.UDFs),
		confidence: 0.95,
		tel:        telemetry.Default(),
	}
}

// SetTelemetry points the session at an explicit telemetry set (the default
// is the process-wide one).
func (a *Analyst) SetTelemetry(s *telemetry.Set) {
	if s == nil {
		s = telemetry.Noop()
	}
	a.tel = s
}

// SetConfidence changes the confidence level used for intervals
// (default 0.95).
func (a *Analyst) SetConfidence(c float64) { a.confidence = c }

// Relation exposes the analyst's working (cleaned private) relation.
func (a *Analyst) Relation() *relation.Relation { return a.rel }

// Provenance exposes the provenance store (read-mostly; cleaning maintains
// it).
func (a *Analyst) Provenance() *provenance.Store { return a.prov }

// Meta exposes the released view metadata.
func (a *Analyst) Meta() *privacy.ViewMeta { return a.meta }

// RegisterUDF makes a predicate function available to WHERE clauses under
// the given (case-insensitive) name.
func (a *Analyst) RegisterUDF(name string, f func(string) bool) {
	a.udfs[strings.ToLower(name)] = f
}

// Clean applies a composition of cleaning operations to the private
// relation, recording value provenance.
func (a *Analyst) Clean(ops ...cleaning.Op) error {
	sp := a.tel.Trace.StartSpan(nil, "clean", telemetry.A("ops", len(ops)))
	defer sp.End()
	ctx := &cleaning.Context{Rel: a.rel, Prov: a.prov, Meta: a.meta, Tel: a.tel, Span: sp}
	return cleaning.Apply(ctx, ops...)
}

// Estimator returns the PrivateClean estimator configured with the session's
// metadata and provenance.
func (a *Analyst) Estimator() *estimator.Estimator {
	return &estimator.Estimator{Meta: a.meta, Prov: a.prov, Confidence: a.confidence}
}

// GroupEstimate pairs the two estimators' results for one group.
type GroupEstimate struct {
	PrivateClean estimator.Estimate
	Direct       float64
}

// QueryResult reports both estimators for one query.
type QueryResult struct {
	// Query is the parsed query.
	Query *query.Query
	// PrivateClean is the bias-corrected estimate with confidence interval.
	PrivateClean estimator.Estimate
	// Direct is the nominal result on the cleaned private relation.
	Direct float64
	// Groups holds per-group results for GROUP BY queries; Scalar results
	// leave it nil.
	Groups map[string]GroupEstimate
	// Bins holds the per-bin estimates of a GROUP BY bin(a) query, in bin
	// order; other results leave it nil.
	Bins []estimator.BinEstimate
}

// IsGroupBy reports whether the result is per-group (Groups or Bins).
func (r *QueryResult) IsGroupBy() bool { return r.Groups != nil || r.Bins != nil }

// Query parses and estimates one SQL query against the cleaned private
// relation.
func (a *Analyst) Query(sql string) (*QueryResult, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	return a.Run(q)
}

// Run estimates an already-parsed query through the query executor, the
// one the CLI and the query server use. Refusals are typed
// faults.ErrBadQuery errors.
func (a *Analyst) Run(q *query.Query) (*QueryResult, error) {
	sp := a.tel.Trace.StartSpan(nil, "query_estimate", telemetry.A("agg", q.Agg.String()))
	defer sp.End()
	ans, err := query.Run(a.tel, a.Estimator(), query.Source{Rel: a.rel}, q, a.udfs)
	if err != nil {
		return nil, err
	}
	res := &QueryResult{Query: q, Bins: ans.Bins}
	switch ans.Shape {
	case query.ShapeBin: // binned groups report no Direct value
	case query.ShapeGroup:
		direct, err := ans.GroupDirect()
		if err != nil {
			return nil, err
		}
		res.Groups = make(map[string]GroupEstimate, len(ans.Groups))
		for k, e := range ans.Groups {
			res.Groups[k] = GroupEstimate{PrivateClean: e, Direct: direct[k]}
		}
	default:
		if res.Direct, err = ans.Direct(); err != nil {
			return nil, err
		}
		res.PrivateClean = ans.Estimate
	}
	return res, nil
}

// Histogram estimates the frequency of every distinct value of a discrete
// attribute in the cleaned private relation — the local-DP frequency-oracle
// view of GroupCounts. Negative corrected counts (possible for values with
// near-zero support) are clamped at zero.
func (a *Analyst) Histogram(attr string) (map[string]estimator.Estimate, error) {
	ans, err := query.Run(a.tel, a.Estimator(), query.Source{Rel: a.rel},
		&query.Query{Agg: query.AggCount, GroupBy: attr}, nil)
	if err != nil {
		return nil, err
	}
	groups := ans.Groups
	for k, e := range groups {
		if e.Value < 0 {
			e.Value = 0
			groups[k] = e
		}
	}
	return groups, nil
}

// Explanation reports the estimator internals for one single-predicate
// query: the response-channel parameters the bias correction is built from
// (Sections 5-7). Useful for debugging why an estimate looks the way it
// does.
type Explanation struct {
	// Attr is the predicate's attribute; BaseAttr the attribute whose
	// randomization governs it (differs only for extracted attributes).
	Attr     string
	BaseAttr string
	// P is the randomization probability, N the dirty-domain size, and L
	// the predicate's (possibly weighted) dirty-domain selectivity.
	P float64
	N int
	L float64
	// Mechanism is the canonical name of the discrete mechanism the
	// attribute was randomized under ("grr" for legacy metadata).
	Mechanism string
	// TauP and TauN are the channel's true/false-positive probabilities
	// under that mechanism.
	TauP, TauN float64
	// Forked reports whether the attribute's provenance graph required the
	// weighted (Section 7) treatment.
	Forked bool
	// CleanDomainSize is |M|, the attribute's domain after cleaning.
	CleanDomainSize int
}

// String renders the explanation. The mechanism is shown only when it is
// not the default GRR, keeping the rendering stable for existing output.
func (ex Explanation) String() string {
	s := fmt.Sprintf("attr=%s base=%s p=%.4g N=%d l=%.4g tau_p=%.4g tau_n=%.4g forked=%t |M|=%d",
		ex.Attr, ex.BaseAttr, ex.P, ex.N, ex.L, ex.TauP, ex.TauN, ex.Forked, ex.CleanDomainSize)
	if ex.Mechanism != "" && ex.Mechanism != privacy.MechGRR {
		s += " mechanism=" + ex.Mechanism
	}
	return s
}

// Explain parses a query with a single-attribute WHERE clause and reports
// the channel parameters its estimate would use.
func (a *Analyst) Explain(sql string) (Explanation, error) {
	return ExplainQuery(sql, a.meta, a.prov, a.udfs)
}

// ExplainQuery is the standalone form of Analyst.Explain, usable with
// deserialized metadata and provenance (e.g. in the CLI). prov may be nil
// when no cleaning happened.
func ExplainQuery(sql string, viewMeta *privacy.ViewMeta, prov *provenance.Store, udfs query.UDFs) (Explanation, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return Explanation{}, err
	}
	if q.Where == nil || len(q.AndWhere) > 0 {
		return Explanation{}, fmt.Errorf("core: Explain needs exactly one WHERE condition")
	}
	pred, err := query.CompilePredicate(q.Where, udfs)
	if err != nil {
		return Explanation{}, err
	}
	base := pred.Attr
	if prov != nil {
		base = prov.BaseAttr(pred.Attr)
	}
	meta, err := viewMeta.DiscreteFor(base)
	if err != nil {
		return Explanation{}, err
	}
	mech, err := meta.Mech()
	if err != nil {
		return Explanation{}, fmt.Errorf("core: attribute %q: %w", base, err)
	}
	ex := Explanation{
		Attr:      pred.Attr,
		BaseAttr:  base,
		P:         meta.P,
		N:         meta.N(),
		Mechanism: privacy.CanonicalMechanismName(meta.Mechanism),
	}
	var g *provenance.Graph
	if prov != nil {
		if got, ok := prov.Graph(pred.Attr); ok {
			g = got
		}
	}
	if g != nil {
		ex.L = g.Selectivity(pred.Match)
		ex.Forked = g.Forked()
		ex.CleanDomainSize = len(g.CleanDomain())
	} else {
		for _, v := range meta.Domain {
			if pred.Match(v) {
				ex.L++
			}
		}
		ex.CleanDomainSize = ex.N
	}
	if ex.N > 0 {
		// Channel returns tauN and denom = tauP - tauN; for GRR these are
		// p·l/N and 1-p, reproducing the pre-registry floats exactly.
		tauN, denom := mech.Channel(ex.P, ex.N, ex.L)
		ex.TauN = tauN
		ex.TauP = denom + tauN
	}
	return ex, nil
}
