package collect

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"privateclean/internal/telemetry"
)

// newTracedTel builds a telemetry set with a live tracer, which the Noop set
// used by most service tests deliberately lacks.
func newTracedTel() *telemetry.Set {
	red := telemetry.NewRedactor()
	return &telemetry.Set{
		Log:     telemetry.NopLogger(),
		Metrics: telemetry.NewRegistry(red),
		Trace:   telemetry.NewTracer(red),
		Redact:  red,
	}
}

// postTraced posts a batch with a traceparent header, returning the recorder.
func postTraced(t *testing.T, h http.Handler, b Batch, traceparent string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/report", bytes.NewReader(body))
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// rootsNamed returns the tracer's retained root spans with the given name.
func rootsNamed(tel *telemetry.Set, name string) []*telemetry.Span {
	var out []*telemetry.Span
	for _, r := range tel.Trace.Roots() {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// TestServiceTracePropagation: a client traceparent on POST /v1/report is
// adopted by the collect_report span (same trace ID, client span as parent),
// echoed on the ack, and the WAL append runs as a child span of it.
func TestServiceTracePropagation(t *testing.T) {
	tel := newTracedTel()
	s := newTestService(t, t.TempDir(), func(c *Config) { c.Tel = tel })
	defer s.Shutdown(context.Background())
	h := s.Handler()

	clientTrace, clientSpan := telemetry.NewTraceID(), telemetry.NewSpanID()
	b := makeBatches(t, collectMeta(), 11, 1, 3)[0]
	rec := postTraced(t, h, b, telemetry.FormatTraceparent(clientTrace, clientSpan))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/report = %d: %s", rec.Code, rec.Body)
	}

	echo := rec.Header().Get("traceparent")
	echoTrace, _, ok := telemetry.ParseTraceparent(echo)
	if !ok || echoTrace != clientTrace {
		t.Fatalf("ack traceparent %q does not continue client trace %s", echo, clientTrace)
	}

	spans := rootsNamed(tel, "collect_report")
	if len(spans) != 1 {
		t.Fatalf("collect_report spans = %d, want 1", len(spans))
	}
	sp := spans[0]
	if sp.TraceID != clientTrace || sp.ParentID != clientSpan {
		t.Fatalf("server span context (trace=%s parent=%s) does not adopt client context (%s, %s)",
			sp.TraceID, sp.ParentID, clientTrace, clientSpan)
	}
	var sawAppend bool
	for _, c := range sp.Children {
		if c.Name == "wal_append" && c.TraceID == clientTrace && c.ParentID == sp.SpanID {
			sawAppend = true
		}
	}
	if !sawAppend {
		t.Fatalf("no wal_append child under the collect_report span: %+v", sp.Children)
	}

	// A hostile header degrades to a fresh trace instead of injecting bytes.
	b2 := makeBatches(t, collectMeta(), 12, 1, 2)[0]
	b2.ID = "hostile-header-batch"
	rec = postTraced(t, h, b2, "00-<script>-deadbeefdeadbeef-01")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST with hostile header = %d: %s", rec.Code, rec.Body)
	}
	for _, sp := range rootsNamed(tel, "collect_report") {
		if !telemetry.ValidTraceID(sp.TraceID) {
			t.Fatalf("span adopted an invalid trace ID %q", sp.TraceID)
		}
	}
}

// TestServiceFoldSpanLinks: every folded batch's trace ID appears in exactly
// one fold span's link set — including duplicates appended twice before the
// fold, and batches recovered after an unclean shutdown (the kill -9 path).
func TestServiceFoldSpanLinks(t *testing.T) {
	dir := t.TempDir()
	tel := newTracedTel()
	s := newTestService(t, dir, func(c *Config) { c.Tel = tel })
	h := s.Handler()

	batches := makeBatches(t, collectMeta(), 21, 3, 2)
	traces := map[string]string{} // batch ID -> trace ID
	for i := range batches {
		batches[i].TraceID = telemetry.NewTraceID()
		traces[batches[i].ID] = batches[i].TraceID
		mustPost(t, h, batches[i])
	}
	// A pre-fold duplicate lands in the WAL twice but must link once.
	mustPost(t, h, batches[0])

	// Unclean shutdown: nothing folded yet, so the links must come from the
	// restarted collector's recovery fold.
	s.abort()
	if len(rootsNamed(tel, "fold")) != 0 {
		t.Fatal("fold span recorded before any compaction")
	}

	tel2 := newTracedTel()
	s2 := newTestService(t, dir, func(c *Config) { c.Tel = tel2 })
	defer s2.Shutdown(context.Background())

	linkCount := map[string]int{}
	for _, sp := range rootsNamed(tel2, "fold") {
		for _, l := range sp.Links {
			linkCount[l]++
		}
	}
	for id, trace := range traces {
		if linkCount[trace] != 1 {
			t.Errorf("batch %s trace %s linked %d times, want exactly 1", id, trace, linkCount[trace])
		}
	}
	if len(linkCount) != len(traces) {
		t.Errorf("fold links cover %d traces, want %d: %v", len(linkCount), len(traces), linkCount)
	}

	// A post-fold re-fold adds no links: the batches already folded.
	if _, err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	again := map[string]int{}
	for _, sp := range rootsNamed(tel2, "fold") {
		for _, l := range sp.Links {
			again[l]++
		}
	}
	for trace, n := range again {
		if n != 1 {
			t.Errorf("trace %s linked %d times after re-compaction", trace, n)
		}
	}
}

// TestServiceStatusz: the pipeline-health summary distinguishes "never
// folded" from "just folded", and reports watermark, backlog, and freshness
// consistent with what actually happened.
func TestServiceStatusz(t *testing.T) {
	tel := newTracedTel()
	s := newTestService(t, t.TempDir(), func(c *Config) { c.Tel = tel })
	defer s.Shutdown(context.Background())
	h := s.Handler()

	getStatusz := func() statuszResponse {
		t.Helper()
		rec := do(t, h, http.MethodGet, "/v1/statusz", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/statusz = %d: %s", rec.Code, rec.Body)
		}
		var resp statuszResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("statusz body is not JSON: %v\n%s", err, rec.Body)
		}
		return resp
	}

	fresh := getStatusz()
	if fresh.Service != "collect" || fresh.Rows != 0 || fresh.Batches != 0 {
		t.Fatalf("fresh statusz: %+v", fresh)
	}
	if fresh.LastFoldUnix != 0 || fresh.LastFoldAgeSeconds != -1 {
		t.Fatalf("fresh statusz must report never-folded, got %+v", fresh)
	}
	if fresh.Mechanism != s.mech {
		t.Fatalf("statusz mechanism %q != pinned %q", fresh.Mechanism, s.mech)
	}

	for _, b := range makeBatches(t, collectMeta(), 31, 2, 4) {
		mustPost(t, h, b)
	}
	_ = getStats(t, h) // compact-on-read folds everything

	after := getStatusz()
	if after.Rows != 8 || after.Batches != 2 {
		t.Fatalf("statusz rows/batches = %d/%d, want 8/2", after.Rows, after.Batches)
	}
	if after.SealedBacklog != 0 || after.SeqLag != 0 {
		t.Fatalf("statusz backlog after full compaction: %+v", after)
	}
	if after.AppliedSeq == 0 || after.ActiveSeq <= after.AppliedSeq {
		t.Fatalf("statusz watermark: applied=%d active=%d", after.AppliedSeq, after.ActiveSeq)
	}
	if after.FreshnessCount != 2 || after.FreshnessSumSeconds < 0 {
		t.Fatalf("statusz freshness count/sum = %d/%v, want 2 observations", after.FreshnessCount, after.FreshnessSumSeconds)
	}
	if after.PendingAcks != 0 {
		t.Fatalf("statusz pending acks = %d after folding everything", after.PendingAcks)
	}
	if after.LastFoldUnix == 0 || after.LastFoldAgeSeconds < 0 || after.UptimeSeconds <= 0 {
		t.Fatalf("statusz stamps: %+v", after)
	}

	// The freshness histogram is also on /metrics (acceptance: >= 1
	// observation after an end-to-end drain).
	metrics := do(t, h, http.MethodGet, "/metrics", nil).Body.String()
	if !strings.Contains(metrics, "privateclean_collect_freshness_seconds_count 2") {
		t.Fatalf("metrics missing freshness observations:\n%s", metrics)
	}

	if rec := do(t, h, http.MethodPost, "/v1/statusz", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/statusz = %d, want 405", rec.Code)
	}
}

// TestServiceTracez: completed traces are retrievable from the bounded ring.
func TestServiceTracez(t *testing.T) {
	tel := newTracedTel()
	s := newTestService(t, t.TempDir(), func(c *Config) { c.Tel = tel })
	defer s.Shutdown(context.Background())
	h := s.Handler()

	mustPost(t, h, makeBatches(t, collectMeta(), 41, 1, 2)[0])
	rec := do(t, h, http.MethodGet, "/v1/tracez", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/tracez = %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Traces []struct {
			Name  string `json:"name"`
			Trace string `json:"trace"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("tracez body: %v\n%s", err, rec.Body)
	}
	var saw bool
	for _, tr := range resp.Traces {
		if tr.Name == "collect_report" && telemetry.ValidTraceID(tr.Trace) {
			saw = true
		}
	}
	if !saw {
		t.Fatalf("tracez has no collect_report trace: %s", rec.Body)
	}
	if rec := do(t, h, http.MethodPost, "/v1/tracez", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/tracez = %d, want 405", rec.Code)
	}
}

// TestServiceAckInstrumentsAtStart: the per-ack instruments are resolved
// when the collector starts, so /metrics lists them, zero-valued, before
// the first ack — and the first ack moves them.
func TestServiceAckInstrumentsAtStart(t *testing.T) {
	tel := newTracedTel()
	s := newTestService(t, t.TempDir(), func(c *Config) { c.Tel = tel })
	defer s.Shutdown(context.Background())
	h := s.Handler()

	metrics := do(t, h, http.MethodGet, "/metrics", nil).Body.String()
	for _, line := range []string{
		"privateclean_collect_wal_append_seconds_count 0",
		"privateclean_collect_wal_fsync_seconds_count ",
		"privateclean_collect_wal_appended_bytes_total 0",
		"privateclean_collect_batches_accepted_total 0",
		"privateclean_collect_reports_accepted_total 0",
		"privateclean_http_shed_total 0",
		"privateclean_collect_duplicate_batches_total 0",
	} {
		if !strings.Contains(metrics, "\n"+line) {
			t.Errorf("/metrics before the first ack lacks %q", line)
		}
	}

	mustPost(t, h, makeBatches(t, collectMeta(), 41, 1, 3)[0])
	metrics = do(t, h, http.MethodGet, "/metrics", nil).Body.String()
	for _, line := range []string{
		"privateclean_collect_wal_append_seconds_count 1",
		"privateclean_collect_batches_accepted_total 1",
		"privateclean_collect_reports_accepted_total 3",
	} {
		if !strings.Contains(metrics, "\n"+line+"\n") {
			t.Errorf("/metrics after one ack lacks %q", line)
		}
	}
}

// TestStatuszUnboundedEpsilon: an attribute released with no privacy
// (p = 0) makes the composed epsilon +Inf, which JSON cannot carry; statusz
// must still answer 200, with the -1 "unbounded" sentinel serve uses.
func TestStatuszUnboundedEpsilon(t *testing.T) {
	s := newTestService(t, t.TempDir(), func(c *Config) {
		dm := c.Meta.Discrete["major"]
		dm.P = 0
		c.Meta.Discrete["major"] = dm
	})
	defer s.Shutdown(context.Background())
	rec := do(t, s.Handler(), http.MethodGet, "/v1/statusz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/statusz with p = 0: %d %s", rec.Code, rec.Body)
	}
	var resp statuszResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TotalEpsilon != -1 {
		t.Errorf("total_epsilon = %v, want the -1 sentinel", resp.TotalEpsilon)
	}
}
