// Package server is the long-running analyst query service: it loads one
// private view (relation + ViewMeta + optional provenance) at startup and
// serves corrected-query estimation over HTTP JSON, so the per-invocation
// CSV-load and channel-resolution cost of the CLI is paid once instead of
// per query.
//
// Endpoints:
//
//	POST /v1/query    {"query": "SELECT ..."} -> corrected Estimate with CI
//	POST /v1/query/batch {"queries": [...]} -> per-query results/errors in order
//	GET  /v1/describe schema + mechanism metadata for the served view
//	GET  /healthz     liveness
//	GET  /metrics     Prometheus text exposition of the telemetry registry
//
// Concurrency contract: the served relation is read-only for the server's
// lifetime, the relation's dictionary-encoding cache and the estimator's
// channel cache are mutex-guarded, and telemetry instruments are atomic, so
// any number of requests run in parallel. Admission is bounded (MaxInFlight,
// excess sheds with 429), each estimation runs under a deadline, and
// Drain waits out in-flight requests, up to DrainTimeout, before returning.
//
// Error mapping: failures surface as typed JSON errors whose HTTP status is
// derived from the faults taxonomy — a bad predicate is the analyst's
// problem (4xx), never a 500. Only a recovered panic maps to 500.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"privateclean/internal/estimator"
	"privateclean/internal/faults"
	"privateclean/internal/privacy"
	"privateclean/internal/provenance"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

// DefaultMaxInFlight bounds concurrently executing /v1/query requests when
// Config.MaxInFlight is zero.
const DefaultMaxInFlight = 64

// DefaultTimeout bounds one query estimation when Config.Timeout is zero.
const DefaultTimeout = 10 * time.Second

// DefaultDrainTimeout bounds the graceful drain when Config.DrainTimeout is
// zero.
const DefaultDrainTimeout = 5 * time.Second

// maxBodyBytes caps a request body; a query string has no business being
// larger.
const maxBodyBytes = 1 << 20

// Config assembles a Server. Meta and exactly one of Rel or Stats are
// required; everything else defaults.
type Config struct {
	// Rel is the (cleaned) private relation to serve. The server owns it:
	// it must not be mutated while the server is running.
	Rel *relation.Relation
	// Stats serves from sufficient statistics instead of a resident
	// relation. It answers what the statistics column of the query
	// executor's dispatch table supports (see query.Run); the rest are
	// typed bad queries naming the flag or input that would answer them.
	// Mutually exclusive with Rel.
	Stats *estimator.Statistics
	// Meta is the GRR view metadata released with the relation.
	Meta *privacy.ViewMeta
	// Prov is the cleaning provenance; nil when no cleaning happened.
	Prov *provenance.Store
	// Confidence is the interval confidence level (default 0.95).
	Confidence float64
	// Timeout bounds one query estimation (default DefaultTimeout).
	Timeout time.Duration
	// MaxInFlight bounds concurrently executing queries; excess requests
	// are shed with 429 (default DefaultMaxInFlight).
	MaxInFlight int
	// DrainTimeout bounds the graceful drain: Drain stops accepting
	// connections and waits up to this long for in-flight requests before
	// force-closing them (default DefaultDrainTimeout).
	DrainTimeout time.Duration
	// Tel is the telemetry set requests report through (default
	// telemetry.Default()).
	Tel *telemetry.Set
}

// Server serves corrected-query estimation over one resident private view
// (or its sufficient statistics).
type Server struct {
	rel     *relation.Relation
	stats   *estimator.Statistics
	est     *estimator.Estimator
	tel     *telemetry.Set
	timeout time.Duration
	drain   time.Duration
	sem     chan struct{}
	start   time.Time

	mu      sync.Mutex
	httpSrv *http.Server

	// cacheMu serializes publishing the estimator cache's counters, which
	// adds each counter's growth since the previous scrape.
	cacheMu sync.Mutex

	// testHook, when set, runs inside each /v1/query execution after
	// admission; tests use it to hold requests in flight deterministically.
	testHook func()
}

// New validates cfg and builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Rel == nil && cfg.Stats == nil {
		return nil, faults.Errorf(faults.ErrUsage, "server: need a relation or sufficient statistics")
	}
	if cfg.Rel != nil && cfg.Stats != nil {
		return nil, faults.Errorf(faults.ErrUsage, "server: a relation and sufficient statistics are mutually exclusive")
	}
	if cfg.Meta == nil {
		return nil, faults.Errorf(faults.ErrBadMeta, "server: nil view metadata")
	}
	if cfg.Confidence == 0 {
		cfg.Confidence = 0.95
	}
	if cfg.Confidence <= 0 || cfg.Confidence >= 1 {
		return nil, faults.Errorf(faults.ErrBadParams, "server: confidence %v outside (0,1)", cfg.Confidence)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	tel := cfg.Tel
	if tel == nil {
		tel = telemetry.Default()
	}
	// The endpoint paths and server-specific outcome codes appear as metric
	// labels; they are code-chosen strings, not data, so they join the safe
	// vocabulary.
	tel.Redact.Allow("/v1/query", "/v1/query/batch", "/v1/describe", "/v1/statusz", "/v1/tracez",
		"/healthz", "/metrics",
		"timeout", "shed", "method_not_allowed", "not_found", "serve", "serve_query", "serve_batch", "drain",
		"200", "400", "404", "405", "408", "422", "429", "500", "503",
		"channel", "joint", "per-code", "bin", "runs")
	return &Server{
		start: time.Now(),
		rel:   cfg.Rel,
		stats: cfg.Stats,
		est: &estimator.Estimator{
			Meta:       cfg.Meta,
			Prov:       cfg.Prov,
			Confidence: cfg.Confidence,
			Cache:      estimator.NewChannelCache(),
		},
		tel:     tel,
		timeout: cfg.Timeout,
		drain:   cfg.DrainTimeout,
		sem:     make(chan struct{}, cfg.MaxInFlight),
	}, nil
}

// Handler returns the server's HTTP handler (also usable under a test
// server or an external mux).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.instrument("/v1/query", s.handleQuery))
	mux.HandleFunc("/v1/query/batch", s.instrument("/v1/query/batch", s.handleBatch))
	mux.HandleFunc("/v1/describe", s.instrument("/v1/describe", s.handleDescribe))
	mux.HandleFunc("/v1/statusz", s.instrument("/v1/statusz", s.handleStatusz))
	mux.HandleFunc("/v1/tracez", s.instrument("/v1/tracez", s.handleTracez))
	mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	return mux
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error errorInfo `json:"error"`
}

type errorInfo struct {
	// Code is the fault-taxonomy (or server outcome) code, e.g. "bad_query",
	// "timeout", "shed".
	Code string `json:"code"`
	// Message is the human-readable cause. It may echo back text from the
	// analyst's own request; it never reaches logs or metric labels.
	Message string `json:"message"`
}

// statusRecorder captures the response status for the request metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the request counter, latency histogram,
// and in-flight gauge. Labels carry only the route and the numeric status
// class — never request contents.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	// The route's gauge and histogram are resolved once; only the request
	// counter, labelled by status, is looked up per request.
	inflight := s.tel.Metrics.Gauge("privateclean_http_inflight",
		"Requests currently being handled.", telemetry.L("path", path))
	seconds := s.tel.Metrics.Histogram("privateclean_http_request_seconds",
		"Wall time of HTTP request handling.",
		telemetry.DurationBuckets, telemetry.L("path", path))
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		inflight.Add(1)
		defer func() {
			inflight.Add(-1)
			s.tel.Metrics.Counter("privateclean_http_requests_total",
				"HTTP requests, by route and status.",
				telemetry.L("path", path), telemetry.L("status", strconv.Itoa(rec.status))).Inc()
			seconds.Observe(time.Since(start).Seconds())
		}()
		h(rec, r)
	}
}

// writeJSON marshals v, compact, before touching the ResponseWriter, so an
// encoding failure (e.g. a non-finite float that slipped past sanitization)
// surfaces as a 500 error body instead of a truncated response behind a
// success status.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorBody{Error: errorInfo{
			Code:    "internal",
			Message: "encoding response: " + err.Error(),
		}})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, message string) {
	s.writeJSON(w, status, errorBody{Error: errorInfo{Code: code, Message: message}})
}

// httpStatusFor maps a classified error to its HTTP status and wire code.
// Unclassified errors from query parsing/estimation are the analyst's
// bad-query problem; only ErrInternal (a recovered panic / invariant
// violation) is a 500.
func httpStatusFor(err error) (int, string) {
	kind := faults.Kind(err)
	switch kind {
	case faults.ErrUsage, faults.ErrBadQuery:
		return http.StatusBadRequest, telemetry.FaultCode(err)
	case faults.ErrBadInput, faults.ErrBadMeta, faults.ErrBadParams:
		return http.StatusUnprocessableEntity, telemetry.FaultCode(err)
	case faults.ErrInternal:
		return http.StatusInternalServerError, "internal"
	case faults.ErrCorruptCheckpoint, faults.ErrPartialWrite:
		return http.StatusServiceUnavailable, telemetry.FaultCode(err)
	default:
		// Estimator/query errors carry no taxonomy kind; at the serving
		// boundary they are all bad-query responses.
		return http.StatusBadRequest, "bad_query"
	}
}

// queryRequest is the /v1/query body.
type queryRequest struct {
	Query string `json:"query"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST a JSON body to /v1/query")
		return
	}
	var req queryRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "usage", "reading request body: "+err.Error())
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "usage", `body must be JSON {"query": "SELECT ..."}: `+err.Error())
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		s.writeError(w, http.StatusBadRequest, "usage", `missing "query" field`)
		return
	}

	// Bounded admission: a full semaphore sheds immediately rather than
	// queueing unbounded work behind a deadline it would miss anyway.
	select {
	case s.sem <- struct{}{}:
	default:
		w.Header().Set("Retry-After", "1")
		s.tel.Metrics.Counter("privateclean_http_shed_total",
			"Queries shed with 429 because MaxInFlight was reached.").Inc()
		s.writeError(w, http.StatusTooManyRequests, "shed", "server at capacity; retry")
		return
	}

	// Adopt the caller's trace context (strictly validated) so the query
	// span joins the trace that issued the request, and echo the server's
	// context back for correlation. The span lives in the worker goroutine —
	// on a timeout it still ends when the estimation finishes.
	remoteTrace, remoteSpan, _ := telemetry.ParseTraceparent(r.Header.Get("traceparent"))
	sp := s.tel.Trace.StartRemoteSpan(remoteTrace, remoteSpan, "serve_query")
	if tp := sp.Traceparent(); tp != "" {
		w.Header().Set("traceparent", tp)
	}

	type outcome struct {
		resp *queryResponse
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() { <-s.sem }()
		defer sp.End()
		defer func() {
			if p := recover(); p != nil {
				done <- outcome{err: faults.Recover(p)}
			}
		}()
		if s.testHook != nil {
			s.testHook()
		}
		resp, err := s.execute(sp, req.Query)
		done <- outcome{resp: resp, err: err}
	}()

	timer := time.NewTimer(s.timeout)
	defer timer.Stop()
	select {
	case out := <-done:
		if out.err != nil {
			status, code := httpStatusFor(out.err)
			s.tel.Log.Warn("query failed", "path", "/v1/query", "fault", telemetry.FaultCode(out.err), "code", code)
			s.writeError(w, status, code, out.err.Error())
			return
		}
		s.writeJSON(w, http.StatusOK, out.resp)
	case <-timer.C:
		// The worker goroutine finishes on its own and releases its slot;
		// the response just stops waiting for it.
		s.tel.Metrics.Counter("privateclean_http_timeout_total",
			"Queries that exceeded the per-request deadline.").Inc()
		s.writeError(w, http.StatusRequestTimeout, "timeout",
			fmt.Sprintf("query exceeded the %s deadline", s.timeout))
	case <-r.Context().Done():
		s.writeError(w, http.StatusRequestTimeout, "timeout", "client went away")
	}
}

// describeColumn is one schema entry of the describe response. Domain
// *values* are deliberately absent for discrete columns: the private view's
// cells stay out of every server-generated surface except explicit query
// echoes.
type describeColumn struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"`
	Distinct int     `json:"distinct,omitempty"`
	Epsilon  float64 `json:"epsilon,omitempty"`
}

type describeResponse struct {
	Rows         int              `json:"rows"`
	Columns      []describeColumn `json:"columns"`
	TotalEpsilon float64          `json:"total_epsilon"`
	Confidence   float64          `json:"confidence"`
	CleanedAttrs []string         `json:"cleaned_attrs,omitempty"`
}

func (s *Server) handleDescribe(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET /v1/describe")
		return
	}
	meta := s.est.Meta
	resp := describeResponse{
		Confidence: s.est.Confidence,
	}
	// TotalEpsilon can be +Inf (a non-randomized column); JSON has no Inf,
	// so clamp to the -1 sentinel the client can recognize.
	resp.TotalEpsilon = jsonSafe(meta.TotalEpsilon())
	var cols []relation.Column
	if s.stats != nil {
		resp.Rows = s.stats.Rows
		cols = s.stats.Columns
	} else {
		resp.Rows = s.rel.NumRows()
		cols = s.rel.Schema().Columns()
	}
	for _, c := range cols {
		dc := describeColumn{Name: c.Name, Kind: c.Kind.String()}
		if c.Kind == relation.Discrete {
			if s.stats != nil {
				if dom, err := s.stats.Domain(c.Name); err == nil {
					dc.Distinct = len(dom)
				}
			} else if n, err := s.rel.DomainSize(c.Name); err == nil {
				dc.Distinct = n
			}
			if dm, err := meta.DiscreteFor(c.Name); err == nil {
				dc.Epsilon = jsonSafe(dm.Epsilon())
			}
		} else if nm, ok := meta.Numeric[c.Name]; ok {
			dc.Epsilon = jsonSafe(nm.Epsilon())
		}
		resp.Columns = append(resp.Columns, dc)
	}
	if s.est.Prov != nil {
		resp.CleanedAttrs = s.est.Prov.Attrs()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// jsonSafe clamps non-finite values to -1, the wire sentinel for
// "unbounded": JSON has no NaN or Inf, and json.Marshal fails on them. It
// guards every float the server emits — epsilons (p=0 or b=0 means no
// privacy) and estimate values/intervals alike; an estimate's exact
// rendering survives in its Text field.
func jsonSafe(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

// statuszResponse is the /v1/statusz health summary for the query service:
// aggregates and configuration only, never cell values or query text.
type statuszResponse struct {
	Service       string  `json:"service"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Mode          string  `json:"mode"`
	Rows          int     `json:"rows"`
	TotalEpsilon  float64 `json:"total_epsilon"`
	Confidence    float64 `json:"confidence"`
	Inflight      int     `json:"inflight"`
	MaxInFlight   int     `json:"max_inflight"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET /v1/statusz")
		return
	}
	resp := statuszResponse{
		Service:       "serve",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Mode:          "relation",
		TotalEpsilon:  jsonSafe(s.est.Meta.TotalEpsilon()),
		Confidence:    s.est.Confidence,
		Inflight:      len(s.sem),
		MaxInFlight:   cap(s.sem),
	}
	if s.stats != nil {
		resp.Mode = "stats"
		resp.Rows = s.stats.Rows
	} else {
		resp.Rows = s.rel.NumRows()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET /v1/tracez")
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"traces": s.tel.Trace.RecentJSON()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.publishCacheStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.tel.Metrics.WritePrometheus(w)
}

// publishCacheStats copies the estimator cache's hit, miss and entry counts,
// by kind of entry, onto the metrics registry.
func (s *Server) publishCacheStats() {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	reg := s.tel.Metrics
	for _, k := range s.est.Cache.Stats() {
		kind := telemetry.L("kind", k.Kind)
		hits := reg.Counter("privateclean_channel_cache_hits_total", "Estimator cache lookups answered from the cache, by kind of entry.", kind)
		hits.Add(float64(k.Hits) - hits.Value())
		misses := reg.Counter("privateclean_channel_cache_misses_total", "Estimator cache lookups that built the entry, by kind of entry.", kind)
		misses.Add(float64(k.Misses) - misses.Value())
		reg.Gauge("privateclean_channel_cache_entries", "Estimator cache entries resident, by kind of entry.", kind).Set(float64(k.Entries))
	}
}

// Serve accepts connections on l until Drain. It returns
// http.ErrServerClosed after a clean shutdown, matching net/http.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	return srv.Serve(l)
}

// ListenAndServe listens on addr and serves until Drain. The returned
// listener address is reported through ready (useful with ":0"); pass nil
// when not needed.
func (s *Server) ListenAndServe(addr string, ready chan<- net.Addr) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return faults.Wrap(faults.ErrUsage, err)
	}
	if ready != nil {
		ready <- l.Addr()
	}
	return s.Serve(l)
}

// Drain is the deadline-bounded graceful shutdown: stop accepting
// connections, wait up to the configured DrainTimeout for in-flight
// requests, and when the deadline forces the issue, close the remaining
// connections and report it as a typed fault — an aborted response is a
// partial write from the client's point of view, and it must not pass for a
// clean exit.
func (s *Server) Drain() error {
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.drain)
	defer cancel()
	err := srv.Shutdown(ctx)
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	if err == nil {
		return nil
	}
	srv.Close()
	err = faults.Wrap(faults.ErrPartialWrite,
		fmt.Errorf("server: drain aborted in-flight requests after %s: %w", s.drain, err))
	s.tel.Metrics.Counter("privateclean_http_drain_aborts_total",
		"Graceful drains that hit their deadline and force-closed connections.").Inc()
	s.tel.Log.Error("drain deadline forced connection abort", "op", "drain", telemetry.ErrAttr(err))
	return err
}
