package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

// serveFamilies is one query per family of the resident serving mix: IN
// counts, sums, averages, GROUP BY, GROUP BY bin, two-attribute AND,
// median and var. maxAllocs is each family's allocation ceiling for one
// warm /v1/query request through the handler (the recorder and request
// included): five above what the family measured, so the slack absorbs a
// pcdebug build's checks but not a per-group or per-value allocation.
var serveFamilies = []struct {
	name, sql string
	maxAllocs float64
}{
	{"count_in", "SELECT count(1) FROM R WHERE section IN ('s03', 's17', 's29')", 57},
	{"sum", "SELECT sum(value) FROM R WHERE section IN ('s05', 's11')", 57},
	{"avg", "SELECT avg(value) FROM R WHERE section IN ('s07')", 56},
	{"group", "SELECT avg(value) FROM R GROUP BY instructor", 76},
	{"group_bin", "SELECT count(1) FROM R GROUP BY bin(value)", 91},
	{"conj", "SELECT sum(value) FROM R WHERE section IN ('s02', 's09') AND instructor IN ('i4')", 72},
	{"median", "SELECT median(value) FROM R WHERE section IN ('s13', 's21')", 58},
	{"var", "SELECT var(value) FROM R WHERE section IN ('s01')", 55},
}

// servingView is a deterministic view shaped like the served benchmark
// view, scaled down: 40 sections, 8 instructors, a numeric value with a
// released 16-bin layout.
func servingView(tb testing.TB) (*relation.Relation, *privacy.ViewMeta) {
	tb.Helper()
	const rows = 4000
	secs, insts := make([]string, rows), make([]string, rows)
	vals := make([]float64, rows)
	var secDom, instDom []string
	for i := 0; i < 40; i++ {
		secDom = append(secDom, fmt.Sprintf("s%02d", i))
	}
	for i := 0; i < 8; i++ {
		instDom = append(instDom, fmt.Sprintf("i%d", i))
	}
	for i := range secs {
		secs[i] = secDom[(7*i+i/13)%len(secDom)]
		insts[i] = instDom[(i/3)%len(instDom)]
		vals[i] = float64(10 + (i*37)%90)
	}
	schema := relation.MustSchema(
		relation.Column{Name: "section", Kind: relation.Discrete},
		relation.Column{Name: "instructor", Kind: relation.Discrete},
		relation.Column{Name: "value", Kind: relation.Numeric},
	)
	r, err := relation.FromColumns(schema,
		map[string][]float64{"value": vals},
		map[string][]string{"section": secs, "instructor": insts})
	if err != nil {
		tb.Fatal(err)
	}
	meta := &privacy.ViewMeta{
		Discrete: map[string]privacy.DiscreteMeta{
			"section":    {Name: "section", P: 0.1, Domain: secDom},
			"instructor": {Name: "instructor", P: 0.1, Domain: instDom},
		},
		Numeric: map[string]privacy.NumericMeta{"value": {Name: "value", B: 2, Lo: 10, Delta: 89, Bins: 16}},
		Rows:    rows,
	}
	return r, meta
}

// warmServe returns a function posting sql to /v1/query on a served
// servingView, after one warm-up request per family so every table and
// channel the mix needs is cached.
func warmServe(tb testing.TB) func(sql string) {
	tb.Helper()
	r, meta := servingView(tb)
	s, err := New(Config{Rel: r, Meta: meta, Tel: telemetry.Noop()})
	if err != nil {
		tb.Fatal(err)
	}
	h := s.Handler()
	post := func(sql string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"query":"`+sql+`"}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			tb.Fatalf("%s: HTTP %d: %s", sql, rec.Code, rec.Body)
		}
	}
	for _, f := range serveFamilies {
		post(f.sql)
	}
	return post
}

// BenchmarkServeQuery measures one warm /v1/query request per family of
// the resident serving mix through the handler, allocations included.
func BenchmarkServeQuery(b *testing.B) {
	post := warmServe(b)
	for _, f := range serveFamilies {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				post(f.sql)
			}
		})
	}
}

// TestServeQueryAllocBudget holds each family of the serving mix to its
// allocation ceiling per warm request.
func TestServeQueryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops its items under the race detector")
	}
	post := warmServe(t)
	for _, f := range serveFamilies {
		got := testing.AllocsPerRun(50, func() { post(f.sql) })
		t.Logf("%s: %.0f allocs per request", f.name, got)
		if got > f.maxAllocs {
			t.Errorf("%s: %.0f allocs per request, budget %.0f", f.name, got, f.maxAllocs)
		}
	}
}
