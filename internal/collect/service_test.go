package collect

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"privateclean/internal/estimator"
	"privateclean/internal/faults"
	"privateclean/internal/privacy"
	"privateclean/internal/telemetry"
)

func collectMeta() *privacy.ViewMeta {
	return &privacy.ViewMeta{
		Discrete: map[string]privacy.DiscreteMeta{
			"major": {Name: "major", P: 0.25, Domain: []string{"CS", "EE", "ME"}},
		},
		Numeric: map[string]privacy.NumericMeta{
			"score": {Name: "score", B: 2, Delta: 20},
		},
	}
}

func newTestService(t *testing.T, dir string, mutate func(*Config)) *Service {
	t.Helper()
	cfg := Config{Dir: dir, Meta: collectMeta(), Tel: telemetry.Noop()}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// makeBatches privatizes rows client-side with a deterministic per-row RNG,
// so every test run (and every crash-recovery rerun) ships identical reports.
func makeBatches(t testing.TB, meta *privacy.ViewMeta, seed int64, nBatches, perBatch int) []Batch {
	t.Helper()
	mech := privacy.MechanismFingerprint(meta)
	majors := []string{"CS", "EE", "ME"}
	batches := make([]Batch, nBatches)
	row := 0
	for i := range batches {
		batches[i] = Batch{ID: fmt.Sprintf("batch-%03d", i), Mechanism: mech}
		for j := 0; j < perBatch; j++ {
			rep, err := privacy.PrivatizeRecord(privacy.StreamRand(seed, row), meta,
				map[string]string{"major": majors[row%len(majors)]},
				map[string]float64{"score": float64(50 + row%40)})
			if err != nil {
				t.Fatal(err)
			}
			batches[i].Reports = append(batches[i].Reports, rep)
			row++
		}
	}
	return batches
}

func do(t *testing.T, h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, r)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func postBatch(t *testing.T, h http.Handler, b Batch) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return do(t, h, http.MethodPost, "/v1/report", body)
}

func mustPost(t *testing.T, h http.Handler, b Batch) {
	t.Helper()
	if rec := postBatch(t, h, b); rec.Code != http.StatusOK {
		t.Fatalf("POST %s = %d: %s", b.ID, rec.Code, rec.Body)
	}
}

func getStats(t *testing.T, h http.Handler) []byte {
	t.Helper()
	rec := do(t, h, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

func TestServiceAcceptAndStats(t *testing.T) {
	s := newTestService(t, t.TempDir(), nil)
	defer s.Shutdown(context.Background())
	h := s.Handler()
	batches := makeBatches(t, collectMeta(), 1, 4, 5)
	for _, b := range batches {
		mustPost(t, h, b)
	}
	var st estimator.Statistics
	if err := json.Unmarshal(getStats(t, h), &st); err != nil {
		t.Fatal(err)
	}
	if st.Rows != 20 {
		t.Fatalf("stats rows = %d, want 20", st.Rows)
	}
	if _, ok := st.Numeric["score"]; !ok {
		t.Fatal("stats missing score moments")
	}
	if len(st.Discrete["major"]) == 0 {
		t.Fatal("stats missing major marginals")
	}

	// The stats bytes must equal what a direct collector over the same
	// reports produces — the collected path and the batch path agree exactly.
	schema, err := SchemaFor(collectMeta())
	if err != nil {
		t.Fatal(err)
	}
	coll := estimator.NewCollector()
	for _, b := range batches {
		win := refWindow(t, schema, b)
		if err := coll.Add(win); err != nil {
			t.Fatal(err)
		}
	}
	want, err := json.MarshalIndent(coll.Statistics(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := getStats(t, h); !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("collected stats differ from direct-collector stats:\n%s\nvs\n%s", got, want)
	}
}

func TestServiceRejections(t *testing.T) {
	s := newTestService(t, t.TempDir(), func(c *Config) { c.MaxBatchReports = 2 })
	defer s.Shutdown(context.Background())
	h := s.Handler()
	mech := s.Mechanism()
	rep := privacy.Report{Discrete: map[string]string{"major": "CS"}}

	cases := []struct {
		name string
		body string
		code int
		errc string
	}{
		{"not json", `garbage`, 400, "bad_batch"},
		{"no id", `{"mechanism":"` + mech + `","reports":[{}]}`, 400, "bad_batch"},
		{"long id", `{"batch_id":"` + strings.Repeat("x", 300) + `","mechanism":"` + mech + `","reports":[{}]}`, 400, "bad_batch"},
		{"wrong mechanism", `{"batch_id":"b","mechanism":"nope","reports":[{}]}`, 422, "mechanism_mismatch"},
		{"empty batch", `{"batch_id":"b","mechanism":"` + mech + `","reports":[]}`, 400, "bad_batch"},
		{"unknown discrete", `{"batch_id":"b","mechanism":"` + mech + `","reports":[{"discrete":{"ssn":"x"}}]}`, 422, "bad_batch"},
		{"unknown numeric", `{"batch_id":"b","mechanism":"` + mech + `","reports":[{"numeric":{"salary":1}}]}`, 422, "bad_batch"},
		{"non-finite", `{"batch_id":"b","mechanism":"` + mech + `","reports":[{"numeric":{"score":1e999}}]}`, 400, "bad_batch"},
	}
	for _, tc := range cases {
		rec := do(t, h, http.MethodPost, "/v1/report", []byte(tc.body))
		if rec.Code != tc.code {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.code, rec.Body)
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("%s: non-JSON error body %q", tc.name, rec.Body)
		}
		if eb.Error.Code != tc.errc {
			t.Fatalf("%s: code %q, want %q", tc.name, eb.Error.Code, tc.errc)
		}
	}

	// Over the report bound -> 413.
	big := Batch{ID: "big", Mechanism: mech, Reports: []privacy.Report{rep, rep, rep}}
	if rec := postBatch(t, h, big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch = %d, want 413", rec.Code)
	}
	// Wrong methods.
	if rec := do(t, h, http.MethodGet, "/v1/report", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/report = %d, want 405", rec.Code)
	}
	if rec := do(t, h, http.MethodPost, "/v1/stats", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats = %d, want 405", rec.Code)
	}
}

// TestServiceCrossMechanismMismatch is the end-to-end regression for the
// fingerprint-collision bug: a collector pinned to GRR metadata must reject
// batches randomized under k-RR over the *identical* (p, domain) — before
// the mechanism name joined the fingerprint, those two channels pinned
// identically and mixed silently.
func TestServiceCrossMechanismMismatch(t *testing.T) {
	s := newTestService(t, t.TempDir(), nil) // pinned to GRR collectMeta()
	defer s.Shutdown(context.Background())
	h := s.Handler()

	krrMeta := collectMeta()
	dm := krrMeta.Discrete["major"]
	dm.Mechanism = privacy.MechKRR
	krrMeta.Discrete["major"] = dm
	if privacy.MechanismFingerprint(krrMeta) == s.Mechanism() {
		t.Fatal("grr and krr metas share a fingerprint: the collision regression is back")
	}

	batch := makeBatches(t, krrMeta, 1, 1, 3)[0]
	rec := postBatch(t, h, batch)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("krr batch against grr collector = %d, want 422 (%s)", rec.Code, rec.Body)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "mechanism_mismatch" {
		t.Fatalf("error code %q, want mechanism_mismatch", eb.Error.Code)
	}

	// And the same reports are accepted by a collector pinned to the krr
	// meta — the reject above is about channel identity, not about k-RR.
	s2 := newTestService(t, t.TempDir(), func(c *Config) { c.Meta = krrMeta })
	defer s2.Shutdown(context.Background())
	mustPost(t, s2.Handler(), batch)
}

// TestServiceRejectsUnknownMechanismMeta: a collector must refuse to start
// on metadata naming a mechanism the registry does not know — guessing
// inversion constants would corrupt every estimate it serves.
func TestServiceRejectsUnknownMechanismMeta(t *testing.T) {
	meta := collectMeta()
	dm := meta.Discrete["major"]
	dm.Mechanism = "exponential"
	meta.Discrete["major"] = dm
	_, err := New(Config{Dir: t.TempDir(), Meta: meta, Tel: telemetry.Noop()})
	if !errors.Is(err, privacy.ErrUnknownMechanism) {
		t.Fatalf("New with unknown mechanism: %v, want ErrUnknownMechanism", err)
	}
	if !errors.Is(err, faults.ErrBadMeta) {
		t.Fatalf("New with unknown mechanism: %v, want faults.ErrBadMeta", err)
	}
}

// TestServiceShed: with MaxInFlight=1 and one request parked inside the
// handler, the next is shed with 429 and a Retry-After hint.
func TestServiceShed(t *testing.T) {
	s := newTestService(t, t.TempDir(), func(c *Config) { c.MaxInFlight = 1 })
	defer s.Shutdown(context.Background())
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHook = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	h := s.Handler()
	batches := makeBatches(t, collectMeta(), 2, 2, 1)

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postBatch(t, h, batches[0]) }()
	<-entered

	rec := postBatch(t, h, batches[1])
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429 (%s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	close(release)
	if rec := <-done; rec.Code != http.StatusOK {
		t.Fatalf("parked request = %d, want 200 (%s)", rec.Code, rec.Body)
	}
	// Capacity freed: the shed batch succeeds on retry.
	mustPost(t, h, batches[1])
}

// TestServiceDuplicates: a duplicate before compaction is re-appended but
// folds once; a duplicate after folding is acknowledged without an append.
func TestServiceDuplicates(t *testing.T) {
	s := newTestService(t, t.TempDir(), nil)
	defer s.Shutdown(context.Background())
	h := s.Handler()
	b := makeBatches(t, collectMeta(), 3, 1, 4)[0]

	mustPost(t, h, b)
	mustPost(t, h, b) // retry before any fold: lands in the WAL twice
	var st estimator.Statistics
	if err := json.Unmarshal(getStats(t, h), &st); err != nil {
		t.Fatal(err)
	}
	if st.Rows != 4 {
		t.Fatalf("rows = %d after a pre-fold duplicate, want 4", st.Rows)
	}

	rec := postBatch(t, h, b) // retry after folding
	if rec.Code != http.StatusOK {
		t.Fatalf("post-fold duplicate = %d (%s)", rec.Code, rec.Body)
	}
	var resp reportResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Duplicate {
		t.Fatal("post-fold duplicate must be acknowledged with duplicate=true")
	}
	if err := json.Unmarshal(getStats(t, h), &st); err != nil {
		t.Fatal(err)
	}
	if st.Rows != 4 {
		t.Fatalf("rows = %d after a post-fold duplicate, want 4", st.Rows)
	}
}

func TestServiceConfigErrors(t *testing.T) {
	if _, err := New(Config{Meta: collectMeta()}); err == nil {
		t.Fatal("missing Dir must fail")
	}
	if _, err := New(Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("missing Meta must fail")
	}
	bad := collectMeta()
	d := bad.Discrete["major"]
	d.Domain = []string{"ZZ", "AA"} // unsorted
	bad.Discrete["major"] = d
	if _, err := New(Config{Dir: t.TempDir(), Meta: bad, Tel: telemetry.Noop()}); err == nil {
		t.Fatal("invalid meta must fail")
	}
}

// TestHTTPStatusMapping: transient durability failures (partial writes,
// backpressure) are retryable 503s, but corruption is permanent — a client
// retrying a 503 against a corrupt collector would just burn its retry
// budget, so ErrCorruptCheckpoint must map to a non-retryable 500.
func TestHTTPStatusMapping(t *testing.T) {
	cases := []struct {
		err    error
		status int
	}{
		{faults.Errorf(faults.ErrPartialWrite, "disk full"), http.StatusServiceUnavailable},
		{faults.Errorf(faults.ErrCorruptCheckpoint, "sealed segment bit rot"), http.StatusInternalServerError},
		{faults.Errorf(faults.ErrInternal, "bug"), http.StatusInternalServerError},
		{faults.Errorf(faults.ErrBadMeta, "mismatch"), http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		if status, _ := httpStatusFor(c.err); status != c.status {
			t.Errorf("httpStatusFor(%v) = %d, want %d", c.err, status, c.status)
		}
	}
}

// syncBuffer is a race-safe bytes.Buffer for capturing log output written
// from handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServiceRedactionBoundary is the satellite-6 proof: report values (the
// privatized cells) must never reach a telemetry sink — not the metrics
// exposition, not the logs, not the trace JSONL, not /v1/tracez or
// /v1/statusz — while the collector's own counters do.
func TestServiceRedactionBoundary(t *testing.T) {
	const sentinelDiscrete = "XQZ_SENTINEL_VALUE"
	const sentinelNumeric = "31337.25"

	logBuf := &syncBuffer{}
	red := telemetry.NewRedactor()
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	sink, err := telemetry.OpenTraceSink(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.NewTracer(red)
	tracer.SetSink(sink)
	tel := &telemetry.Set{
		Log:     telemetry.NewLogger(logBuf, slog.LevelDebug, "text", red),
		Metrics: telemetry.NewRegistry(red),
		Trace:   tracer,
		Redact:  red,
	}
	s := newTestService(t, t.TempDir(), func(c *Config) { c.Tel = tel })
	defer s.Shutdown(context.Background())
	h := s.Handler()

	meta := collectMeta()
	b := Batch{ID: "redaction-probe", Mechanism: privacy.MechanismFingerprint(meta),
		// A forged trace_id carrying a cell value is shape-invalid and must
		// be dropped before it can ride into spans or fold links.
		TraceID: sentinelDiscrete,
		Reports: []privacy.Report{{
			Discrete: map[string]string{"major": sentinelDiscrete},
			Numeric:  map[string]float64{"score": 31337.25},
		}}}
	mustPost(t, h, b)
	_ = getStats(t, h) // force a fold so compaction paths log and trace too

	metrics := do(t, h, http.MethodGet, "/metrics", nil).Body.String()
	for _, want := range []string{
		"privateclean_collect_batches_accepted_total",
		"privateclean_collect_reports_accepted_total",
		"privateclean_collect_wal_fsync_seconds",
		"privateclean_collect_compactions_total",
		"privateclean_collect_retained_bytes 0",
		"privateclean_http_requests_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
	tracez := do(t, h, http.MethodGet, "/v1/tracez", nil).Body.String()
	statusz := do(t, h, http.MethodGet, "/v1/statusz", nil).Body.String()
	if err := tel.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(traceData) == 0 {
		t.Error("trace sink is empty; the boundary check would be vacuous")
	}
	logs := logBuf.String()
	sinks := map[string]string{
		"metrics": metrics,
		"logs":    logs,
		"tracez":  tracez,
		"statusz": statusz,
		"trace":   string(traceData),
	}
	for name, content := range sinks {
		for _, leak := range []string{sentinelDiscrete, sentinelNumeric, "redaction-probe"} {
			if strings.Contains(content, leak) {
				t.Errorf("%s sink leaks %q", name, leak)
			}
		}
	}
	if logs == "" {
		t.Error("expected recovery/drain log lines at debug level")
	}
}

// TestServiceMetricsCount sanity-checks the counters' arithmetic.
func TestServiceMetricsCount(t *testing.T) {
	s := newTestService(t, t.TempDir(), nil)
	defer s.Shutdown(context.Background())
	h := s.Handler()
	batches := makeBatches(t, collectMeta(), 4, 3, 2)
	for _, b := range batches {
		mustPost(t, h, b)
	}
	metrics := do(t, h, http.MethodGet, "/metrics", nil).Body.String()
	if !strings.Contains(metrics, "privateclean_collect_batches_accepted_total 3") {
		t.Fatalf("batches counter wrong:\n%s", metrics)
	}
	if !strings.Contains(metrics, "privateclean_collect_reports_accepted_total 6") {
		t.Fatalf("reports counter wrong:\n%s", metrics)
	}
	// Canonical bodies take the fast decoder; an indented one falls back.
	if !strings.Contains(metrics, "privateclean_collect_decode_fallback_total 0") {
		t.Fatalf("decode fallback counter wrong after canonical bodies:\n%s", metrics)
	}
	indented, err := json.MarshalIndent(makeBatches(t, collectMeta(), 5, 1, 2)[0], "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, h, http.MethodPost, "/v1/report", indented); rec.Code != http.StatusOK {
		t.Fatalf("indented batch = %d (%s)", rec.Code, rec.Body)
	}
	metrics = do(t, h, http.MethodGet, "/metrics", nil).Body.String()
	if !strings.Contains(metrics, "privateclean_collect_decode_fallback_total 1") {
		t.Fatalf("decode fallback counter wrong after an indented body:\n%s", metrics)
	}
}

// TestServiceOversizedBody: a body past the byte bound is refused with 413
// naming the bound, never decoded from a truncated prefix; a body of exactly
// the bound is read whole.
func TestServiceOversizedBody(t *testing.T) {
	s := newTestService(t, t.TempDir(), nil)
	defer s.Shutdown(context.Background())
	h := s.Handler()
	body, err := json.Marshal(makeBatches(t, collectMeta(), 7, 1, 2)[0])
	if err != nil {
		t.Fatal(err)
	}
	// Trailing whitespace keeps the padded body valid JSON at any length.
	pad := func(n int) []byte { return append(bytes.Clone(body), bytes.Repeat([]byte(" "), n-len(body))...) }

	rec := do(t, h, http.MethodPost, "/v1/report", pad(maxBatchBytes+1))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body of %d bytes = %d, want 413 (%s)", maxBatchBytes+1, rec.Code, rec.Body)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "bad_batch" || !strings.Contains(eb.Error.Message, fmt.Sprint(maxBatchBytes)) {
		t.Fatalf("413 body %+v must be bad_batch naming the %d-byte bound", eb.Error, maxBatchBytes)
	}
	if rec := do(t, h, http.MethodPost, "/v1/report", pad(maxBatchBytes)); rec.Code != http.StatusOK {
		t.Fatalf("body of exactly %d bytes = %d, want 200 (%s)", maxBatchBytes, rec.Code, rec.Body)
	}
}

// TestServiceFoldDoesNotBlock holds a fold between its checkpoint write and
// its swap and checks that readers and acks carry on meanwhile, answering
// from the pre-fold state until the swap.
func TestServiceFoldDoesNotBlock(t *testing.T) {
	s := newTestService(t, t.TempDir(), nil)
	defer s.Shutdown(context.Background())
	h := s.Handler()
	batches := makeBatches(t, collectMeta(), 8, 3, 4)
	mustPost(t, h, batches[0])
	before := getStats(t, h)
	mustPost(t, h, batches[1])
	late, err := json.Marshal(batches[2])
	if err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.store.foldHook = func() error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return nil
	}
	folded := make(chan error, 1)
	go func() {
		_, err := s.Compact()
		folded <- err
	}()
	<-entered

	readers := make(chan error, 1)
	go func() {
		readers <- func() error {
			if s.store.HasBatch(batches[1].ID) {
				return errors.New("HasBatch sees a batch before its fold swaps in")
			}
			if seq := s.store.AppliedSeq(); seq != 1 {
				return fmt.Errorf("AppliedSeq = %d during the fold, want the pre-fold 1", seq)
			}
			got, err := s.store.MarshalStats()
			if err != nil {
				return err
			}
			if !bytes.Equal(got, before) {
				return errors.New("MarshalStats moved before the fold swapped in")
			}
			if rec := do(t, h, http.MethodPost, "/v1/report", late); rec.Code != http.StatusOK {
				return fmt.Errorf("POST during a fold = %d (%s)", rec.Code, rec.Body)
			}
			return nil
		}()
	}()
	select {
	case err := <-readers:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("readers and acks blocked behind a held fold")
	}
	close(release)
	if err := <-folded; err != nil {
		t.Fatal(err)
	}
	if !s.store.HasBatch(batches[1].ID) {
		t.Fatal("HasBatch misses a batch after its fold swapped in")
	}
	after, err := s.store.MarshalStats()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(after, before) {
		t.Fatal("MarshalStats unchanged after the fold swapped in")
	}
	var st estimator.Statistics
	if err := json.Unmarshal(getStats(t, h), &st); err != nil {
		t.Fatal(err)
	}
	if st.Rows != 12 {
		t.Fatalf("rows = %d after three batches, want 12", st.Rows)
	}
}

// TestServiceBodyRead covers the three ways a /v1/report body read ends
// short of a decode: a declared length over the bound and an undeclared
// one that runs past it are both refused with 413, and a body shorter than
// its declared length is a 400. An undeclared length within the bound
// reads whole.
func TestServiceBodyRead(t *testing.T) {
	s := newTestService(t, t.TempDir(), nil)
	defer s.Shutdown(context.Background())
	h := s.Handler()
	body, err := json.Marshal(makeBatches(t, collectMeta(), 7, 1, 2)[0])
	if err != nil {
		t.Fatal(err)
	}
	post := func(r io.Reader, length int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/report", r)
		req.ContentLength = length
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	// io.MultiReader hides the length, as a chunked request body does.
	undeclared := func(n int) io.Reader {
		return io.MultiReader(bytes.NewReader(body), bytes.NewReader(bytes.Repeat([]byte(" "), n-len(body))))
	}
	for _, tc := range []struct {
		name   string
		rec    *httptest.ResponseRecorder
		status int
		msg    string
	}{
		{"declared over the bound", post(bytes.NewReader(body), maxBatchBytes+1), http.StatusRequestEntityTooLarge, fmt.Sprint(maxBatchBytes)},
		{"undeclared over the bound", post(undeclared(maxBatchBytes+1), -1), http.StatusRequestEntityTooLarge, fmt.Sprint(maxBatchBytes)},
		{"shorter than declared", post(bytes.NewReader(body), int64(len(body)+10)), http.StatusBadRequest, "reading request body"},
		{"undeclared within the bound", post(undeclared(len(body)+3), -1), http.StatusOK, ""},
	} {
		if tc.rec.Code != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, tc.rec.Code, tc.status, tc.rec.Body)
		}
		if tc.msg != "" {
			var eb errorBody
			if err := json.Unmarshal(tc.rec.Body.Bytes(), &eb); err != nil {
				t.Fatal(err)
			}
			if eb.Error.Code != "bad_batch" || !strings.Contains(eb.Error.Message, tc.msg) {
				t.Fatalf("%s: error %+v, want bad_batch mentioning %q", tc.name, eb.Error, tc.msg)
			}
		}
	}
}

// TestServiceUnknownAttributeMessage: a 422 for unknown attributes names
// the first report carrying one and, within it, the smallest unknown name,
// discrete before numeric — the same message on every post, whether the
// body takes the fast decoder (compact) or encoding/json (indented).
func TestServiceUnknownAttributeMessage(t *testing.T) {
	s := newTestService(t, t.TempDir(), nil)
	defer s.Shutdown(context.Background())
	h := s.Handler()
	mech := privacy.MechanismFingerprint(collectMeta())
	for _, tc := range []struct {
		reports string
		want    string
	}{
		{`[{"discrete":{"major":"CS"}},{"numeric":{"zz":1,"aa":2},"discrete":{"zeta":"x","major":"CS","alpha":"y"}},{"discrete":{"beta":"z"}}]`,
			`report 1: unknown discrete attribute "alpha"`},
		{`[{"numeric":{"score":1,"zz":1,"yy":2,"xx":3}},{"discrete":{"a":"b"}}]`,
			`report 0: unknown numeric attribute "xx"`},
	} {
		compact := []byte(`{"batch_id":"b","mechanism":"` + mech + `","reports":` + tc.reports + `}`)
		var indented bytes.Buffer
		if err := json.Indent(&indented, compact, "", "  "); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			for _, body := range [][]byte{compact, indented.Bytes()} {
				rec := do(t, h, http.MethodPost, "/v1/report", body)
				var eb errorBody
				if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
					t.Fatal(err)
				}
				if rec.Code != http.StatusUnprocessableEntity || eb.Error.Message != tc.want {
					t.Fatalf("post %d: %d %q, want 422 %q", i, rec.Code, eb.Error.Message, tc.want)
				}
			}
		}
	}
}
