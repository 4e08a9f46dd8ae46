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
// Shutdown waits out in-flight requests, up to its context's deadline,
// before returning.
//
// Error mapping: failures surface as typed JSON errors whose HTTP status is
// derived from the faults taxonomy (httpsvc.Status) — a bad predicate is the
// analyst's problem (4xx), never a 500.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"privateclean/internal/estimator"
	"privateclean/internal/faults"
	"privateclean/internal/httpsvc"
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
	// Tel is the telemetry set requests report through (default
	// telemetry.Default()).
	Tel *telemetry.Set
}

// Server serves corrected-query estimation over one resident private view
// (or its sufficient statistics). Its HTTP front, the shared chassis, gives
// it Handler, Serve, ListenAndServe and Shutdown.
type Server struct {
	*httpsvc.Chassis
	rel     *relation.Relation
	stats   *estimator.Statistics
	est     *estimator.Estimator
	tel     *telemetry.Set
	timeout time.Duration
	start   time.Time

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
	tel := cfg.Tel
	if tel == nil {
		tel = telemetry.Default()
	}
	// The server-specific outcome codes, span names and cache kinds appear
	// as metric labels; they are code-chosen strings, not data, so they join
	// the safe vocabulary.
	tel.Redact.Allow("timeout", "serve", "serve_query", "serve_batch",
		"channel", "joint", "per-code", "bin")
	s := &Server{
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
	}
	s.Chassis = httpsvc.New(tel, cfg.MaxInFlight, "server", s.publishCacheStats)
	s.Handle("/v1/query", s.handleQuery)
	s.Handle("/v1/query/batch", s.handleBatch)
	s.HandleGet("/v1/describe", s.handleDescribe)
	s.HandleGet("/v1/statusz", s.handleStatusz)
	return s, nil
}

// queryRequest is the /v1/query body.
type queryRequest struct {
	Query string `json:"query"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpsvc.WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST a JSON body to /v1/query")
		return
	}
	var req queryRequest
	body, status, msg := httpsvc.ReadBody(r, nil, maxBodyBytes)
	if status != 0 {
		httpsvc.WriteError(w, status, "usage", msg)
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		httpsvc.WriteError(w, http.StatusBadRequest, "usage", `body must be JSON {"query": "SELECT ..."}: `+err.Error())
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		httpsvc.WriteError(w, http.StatusBadRequest, "usage", `missing "query" field`)
		return
	}
	if !s.Admit(w) {
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
		defer s.Release()
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
			code := httpsvc.WriteFault(w, out.err, "bad_query")
			s.tel.Log.Warn("query failed", "path", "/v1/query", "fault", telemetry.FaultCode(out.err), "code", code)
			return
		}
		httpsvc.WriteJSON(w, http.StatusOK, out.resp)
	case <-timer.C:
		// The worker goroutine finishes on its own and releases its slot;
		// the response just stops waiting for it.
		s.tel.Metrics.Counter("privateclean_http_timeout_total",
			"Queries that exceeded the per-request deadline.").Inc()
		httpsvc.WriteError(w, http.StatusRequestTimeout, "timeout",
			fmt.Sprintf("query exceeded the %s deadline", s.timeout))
	case <-r.Context().Done():
		httpsvc.WriteError(w, http.StatusRequestTimeout, "timeout", "client went away")
	}
}

// describeColumn is one schema entry of the describe response. Domain
// *values* are deliberately absent for discrete columns: the private view's
// cells stay out of every server-generated surface except explicit query
// echoes.
type describeColumn struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Distinct int    `json:"distinct,omitempty"`
	// Epsilon is present, 0 included, whenever the metadata covers the column.
	Epsilon *float64 `json:"epsilon,omitempty"`
}

type describeResponse struct {
	Rows         int              `json:"rows"`
	Columns      []describeColumn `json:"columns"`
	TotalEpsilon float64          `json:"total_epsilon"`
	Confidence   float64          `json:"confidence"`
	CleanedAttrs []string         `json:"cleaned_attrs,omitempty"`
}

func (s *Server) handleDescribe(w http.ResponseWriter, r *http.Request) {
	meta := s.est.Meta
	resp := describeResponse{
		Confidence: s.est.Confidence,
	}
	// TotalEpsilon can be +Inf (a non-randomized column); JSON has no Inf,
	// so clamp to the -1 sentinel the client can recognize.
	resp.TotalEpsilon = httpsvc.JSONSafe(meta.TotalEpsilon())
	var cols []relation.Column
	if s.stats != nil {
		resp.Rows = s.stats.Rows
		cols = s.stats.Columns
	} else {
		resp.Rows = s.rel.NumRows()
		cols = s.rel.Schema().Columns()
	}
	for _, c := range cols {
		dc, eps := describeColumn{Name: c.Name, Kind: c.Kind.String()}, 0.0
		if c.Kind == relation.Discrete {
			if s.stats != nil {
				dc.Distinct = len(s.stats.Discrete[c.Name])
			} else if n, err := s.rel.DomainSize(c.Name); err == nil {
				dc.Distinct = n
			}
			if dm, err := meta.DiscreteFor(c.Name); err == nil {
				eps = httpsvc.JSONSafe(dm.Epsilon())
				dc.Epsilon = &eps
			}
		} else if nm, ok := meta.Numeric[c.Name]; ok {
			eps = httpsvc.JSONSafe(nm.Epsilon())
			dc.Epsilon = &eps
		}
		resp.Columns = append(resp.Columns, dc)
	}
	if s.est.Prov != nil {
		resp.CleanedAttrs = s.est.Prov.Attrs()
	}
	httpsvc.WriteJSON(w, http.StatusOK, resp)
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
	resp := statuszResponse{
		Service:       "serve",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Mode:          "relation",
		TotalEpsilon:  httpsvc.JSONSafe(s.est.Meta.TotalEpsilon()),
		Confidence:    s.est.Confidence,
		Inflight:      s.InFlight(),
		MaxInFlight:   s.MaxInFlight(),
	}
	if s.stats != nil {
		resp.Mode = "stats"
		resp.Rows = s.stats.Rows
	} else {
		resp.Rows = s.rel.NumRows()
	}
	httpsvc.WriteJSON(w, http.StatusOK, resp)
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
