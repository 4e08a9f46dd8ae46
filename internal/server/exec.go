package server

import (
	"sort"

	"privateclean/internal/estimator"
	"privateclean/internal/httpsvc"
	"privateclean/internal/query"
	"privateclean/internal/telemetry"
)

// estimateJSON is one corrected estimate on the wire. Text carries the
// exact Estimate.String() rendering, so a client (and the integration
// tests) can compare byte-for-byte against the `privateclean query` CLI.
// Value and CI pass through httpsvc.JSONSafe: a non-finite estimate (possible on
// degenerate views) encodes as the -1 sentinel, with Text preserving the
// exact non-finite rendering.
type estimateJSON struct {
	Value float64 `json:"value"`
	CI    float64 `json:"ci"`
	Text  string  `json:"text"`
}

func toJSON(e estimator.Estimate) estimateJSON {
	return estimateJSON{Value: httpsvc.JSONSafe(e.Value), CI: httpsvc.JSONSafe(e.CI), Text: e.String()}
}

// groupEstimate is one GROUP BY bucket. Key may be a private cell value;
// it appears only in the response body, never in logs or metrics. For
// GROUP BY bin(attr) the key is the bin's range label and buckets are
// emitted in bin order rather than sorted by key.
type groupEstimate struct {
	Key      string       `json:"key"`
	Estimate estimateJSON `json:"estimate"`
}

// sortedGroups renders a map of per-value estimates in sorted key order.
func sortedGroups(groups map[string]estimator.Estimate) []groupEstimate {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]groupEstimate, 0, len(keys))
	for _, k := range keys {
		out = append(out, groupEstimate{Key: k, Estimate: toJSON(groups[k])})
	}
	return out
}

// binGroups renders binned GROUP BY buckets in bin order.
func binGroups(bins []estimator.BinEstimate) []groupEstimate {
	out := make([]groupEstimate, 0, len(bins))
	for _, b := range bins {
		out = append(out, groupEstimate{Key: b.Label, Estimate: toJSON(b.Est)})
	}
	return out
}

// queryResponse is the /v1/query success body: exactly one of Estimate or
// Groups is set.
type queryResponse struct {
	Query      string          `json:"query"`
	Agg        string          `json:"agg"`
	Confidence float64         `json:"confidence"`
	Estimate   *estimateJSON   `json:"estimate,omitempty"`
	Groups     []groupEstimate `json:"groups,omitempty"`
}

// execute parses one query and answers it through the query executor,
// under the handler's "serve_query" span (which may continue a remote
// trace; the caller ends it). The executor is the one the CLI calls, so a
// served estimate is byte-identical to the CLI's for the same view and
// query.
func (s *Server) execute(sp *telemetry.Span, sql string) (*queryResponse, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	sp.Set("agg", q.Agg.String())
	ans, err := query.Run(s.tel, s.est, query.Source{Rel: s.rel, Stats: s.stats}, q, nil)
	if err != nil {
		return nil, err
	}
	resp := &queryResponse{Query: sql, Agg: q.Agg.String(), Confidence: s.est.Confidence}
	switch ans.Shape {
	case query.ShapeGroup:
		resp.Groups = sortedGroups(ans.Groups)
	case query.ShapeBin:
		resp.Groups = binGroups(ans.Bins)
	default:
		e := toJSON(ans.Estimate)
		resp.Estimate = &e
	}
	return resp, nil
}
