package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"privateclean/internal/faults"
	"privateclean/internal/telemetry"
)

// maxBatchQueries caps one /v1/query/batch workload. The batch holds a
// single admission slot for its whole run, so the cap bounds how much work
// one slot can represent.
const maxBatchQueries = 256

// batchRequest is the /v1/query/batch body: a workload of query strings
// evaluated in order against the served view.
type batchRequest struct {
	Queries []string `json:"queries"`
}

// batchItem is one per-query outcome. Exactly one of Result or Error is
// set; Status carries the HTTP status the same query would have received
// from /v1/query.
type batchItem struct {
	Status int            `json:"status"`
	Result *queryResponse `json:"result,omitempty"`
	Error  *errorInfo     `json:"error,omitempty"`
}

type batchResponse struct {
	Results []batchItem `json:"results"`
}

// handleBatch evaluates a workload of queries against the resident view in
// one request. The batch occupies one admission slot and runs under the
// per-query timeout scaled by the workload size; individual failures (parse
// errors, unknown attributes, even a panic) are per-item typed errors and
// never fail the surrounding batch. Amortization is the point: every query
// shares the relation's dictionary encodings and the estimator's cache of
// channels and per-view tables, so a workload's repeated predicates are
// evaluated once.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST a JSON body to /v1/query/batch")
		return
	}
	var req batchRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "usage", "reading request body: "+err.Error())
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "usage", `body must be JSON {"queries": ["SELECT ...", ...]}: `+err.Error())
		return
	}
	if len(req.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, "usage", `missing "queries" field`)
		return
	}
	if len(req.Queries) > maxBatchQueries {
		s.writeError(w, http.StatusBadRequest, "usage",
			fmt.Sprintf("batch of %d queries exceeds the %d-query limit", len(req.Queries), maxBatchQueries))
		return
	}

	// One admission slot covers the whole batch: a batch is one unit of
	// analyst work, and shedding it whole beats admitting half a workload.
	select {
	case s.sem <- struct{}{}:
	default:
		w.Header().Set("Retry-After", "1")
		s.tel.Metrics.Counter("privateclean_http_shed_total",
			"Queries shed with 429 because MaxInFlight was reached.").Inc()
		s.writeError(w, http.StatusTooManyRequests, "shed", "server at capacity; retry")
		return
	}

	remoteTrace, remoteSpan, _ := telemetry.ParseTraceparent(r.Header.Get("traceparent"))
	sp := s.tel.Trace.StartRemoteSpan(remoteTrace, remoteSpan, "serve_batch",
		telemetry.A("queries", len(req.Queries)))
	if tp := sp.Traceparent(); tp != "" {
		w.Header().Set("traceparent", tp)
	}

	done := make(chan []batchItem, 1)
	go func() {
		defer func() { <-s.sem }()
		defer sp.End()
		items := make([]batchItem, len(req.Queries))
		for i, q := range req.Queries {
			items[i] = s.executeBatchItem(sp, q)
		}
		done <- items
	}()

	// The per-query deadline scales with the workload: a full batch gets
	// len(queries) times the single-query budget.
	timer := time.NewTimer(s.timeout * time.Duration(len(req.Queries)))
	defer timer.Stop()
	select {
	case items := <-done:
		s.writeJSON(w, http.StatusOK, batchResponse{Results: items})
	case <-timer.C:
		s.tel.Metrics.Counter("privateclean_http_timeout_total",
			"Queries that exceeded the per-request deadline.").Inc()
		s.writeError(w, http.StatusRequestTimeout, "timeout",
			fmt.Sprintf("batch exceeded its %s deadline", s.timeout*time.Duration(len(req.Queries))))
	case <-r.Context().Done():
		s.writeError(w, http.StatusRequestTimeout, "timeout", "client went away")
	}
}

// executeBatchItem runs one query of a batch, converting every failure mode
// — including a panic — into that item's typed error so the rest of the
// workload proceeds.
func (s *Server) executeBatchItem(sp *telemetry.Span, q string) (item batchItem) {
	defer func() {
		if p := recover(); p != nil {
			err := faults.Recover(p)
			status, code := httpStatusFor(err)
			item = batchItem{Status: status, Error: &errorInfo{Code: code, Message: err.Error()}}
		}
	}()
	if strings.TrimSpace(q) == "" {
		return batchItem{Status: http.StatusBadRequest, Error: &errorInfo{Code: "usage", Message: "empty query"}}
	}
	resp, err := s.execute(sp, q)
	if err != nil {
		status, code := httpStatusFor(err)
		s.tel.Log.Warn("query failed", "path", "/v1/query/batch", "fault", telemetry.FaultCode(err), "code", code)
		return batchItem{Status: status, Error: &errorInfo{Code: code, Message: err.Error()}}
	}
	return batchItem{Status: http.StatusOK, Result: resp}
}
