package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"privateclean/internal/estimator"
	"privateclean/internal/httpsvc"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

var testSchema = relation.MustSchema(
	relation.Column{Name: "category", Kind: relation.Discrete},
	relation.Column{Name: "value", Kind: relation.Numeric},
)

// testView is a deterministic private view: category counts 50/30/15/4/1
// over a..e, value correlated with category.
func testView(t *testing.T) (*relation.Relation, *privacy.ViewMeta) {
	t.Helper()
	counts := map[string]int{"a": 50, "b": 30, "c": 15, "d": 4, "e": 1}
	base := map[string]float64{"a": 10, "b": 20, "c": 30, "d": 40, "e": 50}
	var cats []string
	var vals []float64
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		for i := 0; i < counts[k]; i++ {
			cats = append(cats, k)
			vals = append(vals, base[k])
		}
	}
	r, err := relation.FromColumns(testSchema,
		map[string][]float64{"value": vals},
		map[string][]string{"category": cats})
	if err != nil {
		t.Fatal(err)
	}
	meta := &privacy.ViewMeta{
		Discrete: map[string]privacy.DiscreteMeta{
			"category": {Name: "category", P: 0.25, Domain: []string{"a", "b", "c", "d", "e"}},
		},
		Numeric: map[string]privacy.NumericMeta{"value": {Name: "value", B: 0, Lo: 10, Delta: 40, Bins: 8}},
		Rows:    len(cats),
	}
	return r, meta
}

func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	r, meta := testView(t)
	cfg := Config{Rel: r, Meta: meta, Tel: telemetry.Noop()}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postQuery(t *testing.T, url, sql string) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"query": sql})
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var eb httpsvc.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body %q is not the JSON envelope: %v", body, err)
	}
	return eb.Error.Code
}

// 64 goroutines hammer the same query; every response must be 200 with an
// estimate identical to the estimator called directly (the race detector in
// `make race` checks the shared cache/index/telemetry state).
func TestConcurrentQueriesConsistent(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	r, meta := testView(t)
	est := &estimator.Estimator{Meta: meta, Confidence: 0.95}
	want, err := est.Count(r, estimator.Eq("category", "b"))
	if err != nil {
		t.Fatal(err)
	}

	const workers = 64
	queries := []string{
		"SELECT count(1) FROM R WHERE category = 'b'",
		"SELECT sum(value) FROM R WHERE category = 'a'",
		"SELECT avg(value) FROM R WHERE category = 'c'",
		"SELECT count(1) FROM R GROUP BY category",
		"SELECT count(1) FROM R GROUP BY bin(value)",
	}
	var wg sync.WaitGroup
	texts := make([]string, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Everyone also runs the mixed workload to contend on the cache.
			for _, q := range queries {
				resp, body := postQuery(t, ts.URL, q)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query %q: status %d: %s", q, resp.StatusCode, body)
					return
				}
			}
			resp, body := postQuery(t, ts.URL, queries[0])
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			var qr queryResponse
			if err := json.Unmarshal(body, &qr); err != nil {
				t.Error(err)
				return
			}
			if qr.Estimate == nil {
				t.Error("missing estimate")
				return
			}
			texts[g] = qr.Estimate.Text
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g, txt := range texts {
		if txt != want.String() {
			t.Fatalf("worker %d: estimate %q differs from direct estimator %q", g, txt, want.String())
		}
	}
}

// Analyst mistakes are typed 4xx responses, never 500s.
func TestErrorMapping(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		sql    string
		status int
		code   string
	}{
		{"parse error", "SELECT nonsense", http.StatusBadRequest, "bad_query"},
		{"unknown column", "SELECT count(1) FROM R WHERE nope = 'x'", http.StatusBadRequest, "bad_query"},
		{"unknown aggregate attr", "SELECT sum(nope) FROM R WHERE category = 'a'", http.StatusBadRequest, "bad_query"},
		{"group by median", "SELECT median(value) FROM R GROUP BY category", http.StatusBadRequest, "bad_query"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postQuery(t, ts.URL, tc.sql)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			if got := errCode(t, body); got != tc.code {
				t.Fatalf("code = %q, want %q", got, tc.code)
			}
		})
	}

	t.Run("bad JSON", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("empty query", func(t *testing.T) {
		resp, body := postQuery(t, ts.URL, "   ")
		if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != "usage" {
			t.Fatalf("status = %d body = %s, want 400/usage", resp.StatusCode, body)
		}
	})
	t.Run("GET on query", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/query")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
	})
}

func TestNewValidatesConfig(t *testing.T) {
	r, meta := testView(t)
	if _, err := New(Config{Meta: meta}); err == nil {
		t.Fatal("New accepted a nil relation")
	}
	if _, err := New(Config{Rel: r}); err == nil {
		t.Fatal("New accepted nil metadata")
	}
	if _, err := New(Config{Rel: r, Meta: meta, Confidence: 1.5}); err == nil {
		t.Fatal("New accepted confidence 1.5")
	}
}

// With MaxInFlight = 1 and one request parked inside the handler, the next
// query is shed with 429 + Retry-After instead of queueing.
func TestShedding(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxInFlight = 1 })
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHook = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		resp, _ := postQuery(t, ts.URL, "SELECT count(1) FROM R WHERE category = 'a'")
		first <- resp.StatusCode
	}()
	<-entered

	resp, body := postQuery(t, ts.URL, "SELECT count(1) FROM R WHERE category = 'a'")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	if errCode(t, body) != "shed" {
		t.Fatalf("code = %q, want shed", errCode(t, body))
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("parked request finished with %d, want 200", code)
	}
	waitReleased(t, s)

	// The slot was released: the next query runs.
	resp, body = postQuery(t, ts.URL, "SELECT count(1) FROM R WHERE category = 'a'")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d (%s)", resp.StatusCode, body)
	}
}

// waitReleased waits until no request holds an admission slot. A query's
// worker gives its slot back after the response it feeds can already be on
// the wire, so a test reusing the slot waits for the release itself.
func waitReleased(t *testing.T, s *Server) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); s.InFlight() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a finished query never released its admission slot")
		}
	}
}

// A query that exceeds the deadline gets 408 with code "timeout", and its
// slot is reclaimed once the stuck worker finishes.
func TestTimeout(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Timeout = 20 * time.Millisecond
		c.MaxInFlight = 1
	})
	var slow sync.Once
	done := make(chan struct{})
	s.testHook = func() {
		slow.Do(func() {
			defer close(done)
			time.Sleep(150 * time.Millisecond)
		})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postQuery(t, ts.URL, "SELECT count(1) FROM R WHERE category = 'a'")
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408 (%s)", resp.StatusCode, body)
	}
	if errCode(t, body) != "timeout" {
		t.Fatalf("code = %q, want timeout", errCode(t, body))
	}

	<-done
	waitReleased(t, s)
	resp, body = postQuery(t, ts.URL, "SELECT count(1) FROM R WHERE category = 'a'")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-timeout status = %d (%s)", resp.StatusCode, body)
	}
}

func TestDescribeAndHealthz(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/describe")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var d describeResponse
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("describe: %v (%s)", err, raw)
	}
	if d.Rows != 100 || len(d.Columns) != 2 || d.Confidence != 0.95 {
		t.Fatalf("describe = %+v", d)
	}
	for _, c := range d.Columns {
		if c.Name == "category" && c.Distinct != 5 {
			t.Fatalf("category distinct = %d, want 5", c.Distinct)
		}
	}
	// The schema is released metadata; the domain *values* are not.
	if strings.Contains(string(raw), `"domain"`) {
		t.Fatalf("describe leaks domain values: %s", raw)
	}
}

// TestDescribeZeroEpsilon: a column the metadata covers carries its ε even
// when it is exactly 0 — a one-value discrete column, a constant numeric
// one — and a column the metadata does not cover carries none.
func TestDescribeZeroEpsilon(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "site", Kind: relation.Discrete},
		relation.Column{Name: "level", Kind: relation.Numeric},
		relation.Column{Name: "note", Kind: relation.Discrete},
	)
	r, err := relation.FromColumns(schema,
		map[string][]float64{"level": {7, 7, 7}},
		map[string][]string{"site": {"s1", "s1", "s1"}, "note": {"x", "y", "x"}})
	if err != nil {
		t.Fatal(err)
	}
	meta := &privacy.ViewMeta{
		Discrete: map[string]privacy.DiscreteMeta{"site": {Name: "site", P: 0.25, Domain: []string{"s1"}}},
		Numeric:  map[string]privacy.NumericMeta{"level": {Name: "level", B: 1, Delta: 0}},
		Rows:     3,
	}
	s, err := New(Config{Rel: r, Meta: meta, Tel: telemetry.Noop()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/describe")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d struct {
		Columns []map[string]any `json:"columns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"site": 0.0, "level": 0.0, "note": nil}
	for _, c := range d.Columns {
		name := c["name"].(string)
		eps, ok := c["epsilon"]
		if w := want[name]; w == nil && ok || w != nil && eps != w {
			t.Errorf("column %s: epsilon %v (present %v), want %v", name, eps, ok, w)
		}
		delete(want, name)
	}
	if len(want) != 0 {
		t.Errorf("columns missing from describe: %v", want)
	}
}

// /metrics exposes request counters and latency histograms, and no query
// text or cell value ever reaches a label.
func TestMetricsHygiene(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const secret = "XYZZYSECRET"
	postQuery(t, ts.URL, fmt.Sprintf("SELECT count(1) FROM R WHERE category = '%s'", secret))
	postQuery(t, ts.URL, "SELECT count(1) FROM R WHERE category = 'a'")
	postQuery(t, ts.URL, fmt.Sprintf("SELECT sum(value) FROM R WHERE category = '%s'", secret))
	postQuery(t, ts.URL, "SELECT sum(value) FROM R WHERE category = 'a'")
	postQuery(t, ts.URL, fmt.Sprintf("SELECT median(value) FROM R WHERE category = '%s'", secret))

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		text := string(body)
		if strings.Contains(text, secret) || strings.Contains(text, "SELECT") || strings.Contains(text, "[redacted") {
			t.Fatalf("metrics leak query contents:\n%s", text)
		}
		return text
	}
	text := scrape()
	for _, want := range []string{
		"privateclean_http_requests_total",
		"privateclean_http_request_seconds",
		"privateclean_http_inflight",
		"privateclean_queries_total",
		`path="/v1/query"`,
		`status="200"`,
		// The estimator cache, by kind: the counts resolved two channels
		// that the sums and the median reused, the two sums and the median
		// shared one per-code table, and nothing built a joint table.
		`privateclean_channel_cache_misses_total{kind="channel"} 2`,
		`privateclean_channel_cache_hits_total{kind="channel"} 3`,
		`privateclean_channel_cache_misses_total{kind="per-code"} 1`,
		`privateclean_channel_cache_hits_total{kind="per-code"} 2`,
		`privateclean_channel_cache_entries{kind="per-code"} 1`,
		`privateclean_channel_cache_entries{kind="joint"} 0`,
		`privateclean_channel_cache_entries{kind="bin"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	// A later scrape publishes only the growth since the last one.
	postQuery(t, ts.URL, "SELECT sum(value) FROM R WHERE category = 'a'")
	if text := scrape(); !strings.Contains(text, `privateclean_channel_cache_hits_total{kind="per-code"} 3`) {
		t.Fatalf("per-code hits after one more sum:\n%s", text)
	}
}

// Non-finite estimate values encode as the -1 wire sentinel (JSON has no
// NaN/Inf) with the exact rendering preserved in Text.
func TestEstimateJSONSanitizesNonFinite(t *testing.T) {
	e := estimator.Estimate{Value: math.NaN(), CI: math.Inf(1)}
	ej := toJSON(e)
	if ej.Value != -1 || ej.CI != -1 {
		t.Fatalf("sanitized estimate = %+v, want -1 sentinels", ej)
	}
	if ej.Text != e.String() {
		t.Fatalf("Text = %q, want exact rendering %q", ej.Text, e.String())
	}
	if _, err := json.Marshal(ej); err != nil {
		t.Fatalf("sanitized estimate does not marshal: %v", err)
	}
}

// Serve-path regression for the In cache-key aliasing: values containing
// ", " (ordinary data like "Washington, DC") used to render identically to
// the split value list, so one query poisoned the shared channel cache for
// the other across requests.
func TestServeInPredicateWithCommaValue(t *testing.T) {
	cats := []string{"b", "b", "c", "b, c", "b, c", "b, c", "d"}
	vals := []float64{1, 2, 3, 4, 5, 6, 7}
	r, err := relation.FromColumns(testSchema,
		map[string][]float64{"value": vals},
		map[string][]string{"category": cats})
	if err != nil {
		t.Fatal(err)
	}
	meta := &privacy.ViewMeta{
		Discrete: map[string]privacy.DiscreteMeta{
			"category": {Name: "category", P: 0.25, Domain: []string{"b", "c", "b, c", "d"}},
		},
		Numeric: map[string]privacy.NumericMeta{"value": {Name: "value", B: 0, Lo: 10, Delta: 40, Bins: 8}},
		Rows:    len(cats),
	}
	s, err := New(Config{Rel: r, Meta: meta, Tel: telemetry.Noop()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	est := &estimator.Estimator{Meta: meta, Confidence: 0.95}
	queries := []struct {
		sql  string
		pred estimator.Predicate
	}{
		{"SELECT count(1) FROM R WHERE category IN ('b', 'c')", estimator.In("category", "b", "c")},
		{"SELECT count(1) FROM R WHERE category IN ('b, c')", estimator.In("category", "b, c")},
	}
	// Both orders: whichever predicate resolves first must not be served
	// back for the other.
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		for _, i := range order {
			q := queries[i]
			want, err := est.Count(r, q.pred)
			if err != nil {
				t.Fatal(err)
			}
			resp, body := postQuery(t, ts.URL, q.sql)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d (%s)", q.sql, resp.StatusCode, body)
			}
			var qr queryResponse
			if err := json.Unmarshal(body, &qr); err != nil {
				t.Fatal(err)
			}
			if qr.Estimate == nil || qr.Estimate.Text != want.String() {
				t.Fatalf("%s: served %+v, direct estimator %q (cache aliasing)", q.sql, qr.Estimate, want.String())
			}
		}
	}
}

// A body past the 1 MiB bound is refused whole with 413 naming the bound,
// on both POST routes, rather than cut off and answered as malformed JSON;
// a body of exactly the bound is read whole.
func TestOversizedBody(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, route := range []struct{ path, body string }{
		{"/v1/query", `{"query": "SELECT count(1) FROM R WHERE category = 'a'"}`},
		{"/v1/query/batch", `{"queries": ["SELECT count(1) FROM R WHERE category = 'a'"]}`},
	} {
		// Trailing whitespace keeps the padded body valid JSON at any length.
		pad := func(n int) io.Reader {
			return strings.NewReader(route.body + strings.Repeat(" ", n-len(route.body)))
		}
		resp, err := http.Post(ts.URL+route.path, "application/json", pad(maxBodyBytes+1))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: body of %d bytes = %d, want 413 (%s)", route.path, maxBodyBytes+1, resp.StatusCode, body)
		}
		var eb httpsvc.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatal(err)
		}
		if eb.Error.Code != "usage" || !strings.Contains(eb.Error.Message, fmt.Sprint(maxBodyBytes)) {
			t.Fatalf("%s: 413 body %+v must be usage naming the %d-byte bound", route.path, eb.Error, maxBodyBytes)
		}
		resp, err = http.Post(ts.URL+route.path, "application/json", pad(maxBodyBytes))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: body of exactly %d bytes = %d, want 200", route.path, maxBodyBytes, resp.StatusCode)
		}
	}
}
