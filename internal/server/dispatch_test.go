package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"privateclean/internal/estimator"
	"privateclean/internal/httpsvc"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

// multiSchema has enough discrete attributes to form real conjunctions.
var multiSchema = relation.MustSchema(
	relation.Column{Name: "d1", Kind: relation.Discrete},
	relation.Column{Name: "d2", Kind: relation.Discrete},
	relation.Column{Name: "d3", Kind: relation.Discrete},
	relation.Column{Name: "value", Kind: relation.Numeric},
)

// multiView is a deterministic private view over multiSchema with a
// released bin layout for value.
func multiView(t *testing.T) (*relation.Relation, *privacy.ViewMeta) {
	t.Helper()
	var d1, d2, d3 []string
	var vals []float64
	for i := 0; i < 120; i++ {
		d1 = append(d1, []string{"a", "b"}[i%2])
		d2 = append(d2, []string{"x", "y"}[(i/2)%2])
		d3 = append(d3, []string{"u", "v"}[(i/4)%2])
		vals = append(vals, float64(10+i%40))
	}
	r, err := relation.FromColumns(multiSchema,
		map[string][]float64{"value": vals},
		map[string][]string{"d1": d1, "d2": d2, "d3": d3})
	if err != nil {
		t.Fatal(err)
	}
	meta := &privacy.ViewMeta{
		Discrete: map[string]privacy.DiscreteMeta{
			"d1": {Name: "d1", P: 0.25, Domain: []string{"a", "b"}},
			"d2": {Name: "d2", P: 0.25, Domain: []string{"x", "y"}},
			"d3": {Name: "d3", P: 0.25, Domain: []string{"u", "v"}},
		},
		Numeric: map[string]privacy.NumericMeta{
			"value": {Name: "value", B: 0, Lo: 10, Delta: 39, Bins: 8},
		},
		Rows: len(vals),
	}
	return r, meta
}

// newStatsServer serves multiView from sufficient statistics. withHists
// collects the released bin layout; withJoints records the (d1, d2) joint —
// and only that one.
func newStatsServer(t *testing.T, withHists, withJoints bool) *httptest.Server {
	t.Helper()
	r, meta := multiView(t)
	opts := estimator.CollectOpts{}
	if withHists {
		opts.BinEdges = map[string][]float64{"value": meta.Numeric["value"].BinEdges()}
	}
	if withJoints {
		opts.Joints = [][2]string{{"d1", "d2"}}
	}
	st, err := estimator.CollectStatisticsWith(relation.NewSliceIterator(r, 64), opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Stats: st, Meta: meta, Tel: telemetry.Noop()})
	if err != nil {
		t.Fatal(err)
	}
	return httptest.NewServer(s.Handler())
}

// envelope is the full decoded error body, asserted field by field so the
// hints that name the recovering flag are part of the contract.
func decodeEnvelope(t *testing.T, body []byte) (code, message string) {
	t.Helper()
	var eb httpsvc.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body %q is not the JSON envelope: %v", body, err)
	}
	return eb.Error.Code, eb.Error.Message
}

// TestDispatchEnvelopes pins the error envelope of every unsupported
// dispatch combination: status 400, code bad_query, and a message whose
// hint names the exact flag that records what is missing.
func TestDispatchEnvelopes(t *testing.T) {
	resident := httptest.NewServer(newTestServer(t, nil).Handler())
	defer resident.Close()
	full := newStatsServer(t, true, true)
	defer full.Close()
	bare := newStatsServer(t, false, false)
	defer bare.Close()

	cases := []struct {
		name string
		url  string
		sql  string
		hint string // must appear verbatim in the envelope message
	}{
		{"resident conj median", resident.URL,
			"SELECT median(value) FROM R WHERE category = 'a' AND category = 'b'",
			"does not support AND conjunctions"},
		{"resident group by median", resident.URL,
			"SELECT median(value) FROM R GROUP BY category",
			"GROUP BY supports count(1), sum, and avg only"},
		{"resident bin group by median", resident.URL,
			"SELECT median(value) FROM R GROUP BY bin(value)",
			"GROUP BY bin(value) supports count(1), sum, and avg only"},
		{"stats var", full.URL,
			"SELECT var(value) FROM R",
			"query the view with -in/-col"},
		{"stats std", full.URL,
			"SELECT std(value) FROM R WHERE d1 = 'a'",
			"query the view with -in/-col"},
		{"stats conj median", full.URL,
			"SELECT median(value) FROM R WHERE d1 = 'a' AND d2 = 'x'",
			"does not support AND conjunctions"},
		{"stats bin group by sum", full.URL,
			"SELECT sum(value) FROM R GROUP BY bin(value)",
			"query the view with -in/-col"},
		{"stats bin group by avg", full.URL,
			"SELECT avg(value) FROM R GROUP BY bin(value)",
			"query the view with -in/-col"},
		{"stats conj of three attributes", full.URL,
			"SELECT count(1) FROM R WHERE d1 = 'a' AND d2 = 'x' AND d3 = 'u'",
			"exactly two distinct attributes"},
		{"stats conj without joint", full.URL,
			"SELECT count(1) FROM R WHERE d1 = 'a' AND d3 = 'u'",
			"-conj d1,d3"},
		{"stats quantile without histograms", bare.URL,
			"SELECT quantile(value, 0.9) FROM R WHERE d1 = 'a'",
			"re-run 'privateclean stats' with -meta"},
		{"stats median without histograms", bare.URL,
			"SELECT median(value) FROM R",
			"re-run 'privateclean stats' with -meta"},
		{"stats bin group by without histograms", bare.URL,
			"SELECT count(1) FROM R GROUP BY bin(value)",
			"re-run 'privateclean stats' with -meta"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postQuery(t, tc.url, tc.sql)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, body)
			}
			code, msg := decodeEnvelope(t, body)
			if code != "bad_query" {
				t.Fatalf("code = %q, want bad_query (%s)", code, body)
			}
			if !strings.Contains(msg, tc.hint) {
				t.Fatalf("message %q does not carry the hint %q", msg, tc.hint)
			}
		})
	}
}

// TestDispatchSupportedOverStats pins the combinations the stats path DOES
// serve once histograms and the joint are collected — the positive side of
// the envelope table above.
func TestDispatchSupportedOverStats(t *testing.T) {
	full := newStatsServer(t, true, true)
	defer full.Close()
	for _, sql := range []string{
		"SELECT median(value) FROM R",
		"SELECT median(value) FROM R WHERE d1 = 'a'",
		"SELECT quantile(value, 0.9) FROM R WHERE d1 = 'a'",
		"SELECT count(1) FROM R WHERE d1 = 'a' AND d2 = 'x'",
		"SELECT sum(value) FROM R WHERE d1 = 'a' AND d2 = 'x'",
		"SELECT avg(value) FROM R WHERE d1 = 'a' AND d2 = 'x'",
		"SELECT count(1) FROM R GROUP BY bin(value)",
		"SELECT sum(value) FROM R GROUP BY d1",
		"SELECT avg(value) FROM R GROUP BY d1",
	} {
		resp, body := postQuery(t, full.URL, sql)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status = %d, want 200 (%s)", sql, resp.StatusCode, body)
		}
	}
}

// TestBatchTypedErrorsOverStats is the batch-endpoint regression for the
// new aggregates: a workload against statistics lacking histograms and
// joints must return per-item typed errors for the items that need them,
// without failing the batch or the valid items.
func TestBatchTypedErrorsOverStats(t *testing.T) {
	bare := newStatsServer(t, false, false)
	defer bare.Close()
	queries := []string{
		"SELECT count(1) FROM R WHERE d1 = 'a'",              // valid marginal
		"SELECT median(value) FROM R",                        // needs histograms
		"SELECT quantile(value, 0.25) FROM R WHERE d1 = 'a'", // needs histograms
		"SELECT count(1) FROM R WHERE d1 = 'a' AND d2 = 'x'", // needs the joint
		"SELECT count(1) FROM R GROUP BY bin(value)",         // needs histograms
		"SELECT count(1) FROM R GROUP BY d1",                 // valid group by
	}
	wantOK := []bool{true, false, false, false, false, true}
	wantHint := []string{"", "-meta", "-meta", "-conj d1,d2", "-meta", ""}

	resp, br, raw := postBatch(t, bare.URL, queries)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, raw)
	}
	if len(br.Results) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(br.Results), len(queries))
	}
	for i, item := range br.Results {
		if ok := item.Result != nil; ok != wantOK[i] {
			t.Errorf("query %d (%s): success = %v, want %v (error: %+v)", i, queries[i], ok, wantOK[i], item.Error)
			continue
		}
		if wantOK[i] {
			if item.Status != http.StatusOK {
				t.Errorf("query %d: status = %d, want 200", i, item.Status)
			}
			continue
		}
		if item.Status != http.StatusBadRequest {
			t.Errorf("query %d: status = %d, want 400", i, item.Status)
		}
		if item.Error == nil || item.Error.Code != "bad_query" {
			t.Errorf("query %d: error = %+v, want code bad_query", i, item.Error)
			continue
		}
		if !strings.Contains(item.Error.Message, wantHint[i]) {
			t.Errorf("query %d: message %q does not name the flag %q", i, item.Error.Message, wantHint[i])
		}
	}
}
