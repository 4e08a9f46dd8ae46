// Package httpsvc is the HTTP plumbing the query service (internal/server)
// and the LDP collector (internal/collect) share, so that each holds only
// its own routes, request and response types, and domain logic:
//
//   - the JSON error envelope {"error":{"code","message"}}, written compact;
//   - the mapping from a faults kind to an HTTP status;
//   - bounded request-body reading (413 past the bound);
//   - bounded admission, shedding the excess with 429;
//   - the privateclean_http_* request metrics on every route;
//   - the /v1/tracez, /healthz and /metrics handlers, and a JSON 404 for
//     any other unknown path;
//   - Serve, ListenAndServe and a deadline-bounded Shutdown.
package httpsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"privateclean/internal/faults"
	"privateclean/internal/telemetry"
)

// ErrorBody is the JSON error envelope.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// ErrorInfo is the envelope's content.
type ErrorInfo struct {
	// Code is the fault-taxonomy (or service outcome) code, e.g. "bad_query",
	// "bad_batch", "timeout", "shed".
	Code string `json:"code"`
	// Message is the human-readable cause. It may echo back text from the
	// client's own request; it never reaches logs or metric labels.
	Message string `json:"message"`
}

// WriteJSON encodes v, compact with a trailing newline, into a pooled
// buffer before touching the ResponseWriter, so an encoding failure (e.g. a
// non-finite float that slipped past sanitization) surfaces as a 500 error
// body instead of a truncated response behind a success status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	b := jsonBufs.Get().(*bytes.Buffer)
	if err := json.NewEncoder(b).Encode(v); err != nil {
		status = http.StatusInternalServerError
		_ = json.NewEncoder(b).Encode(ErrorBody{Error: ErrorInfo{
			Code:    "internal",
			Message: "encoding response: " + err.Error(),
		}})
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(b.Bytes())
	if b.Cap() <= 64<<10 { // a buffer a large body grew is left to the collector
		b.Reset()
		jsonBufs.Put(b)
	}
}

// jsonContentType is the Content-Type value every JSON response shares, and
// jsonBufs the response buffers.
var (
	jsonContentType = []string{"application/json"}
	jsonBufs        = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// JSONSafe clamps non-finite values to -1, the wire sentinel for
// "unbounded": JSON has no NaN or Inf, and json.Marshal fails on them. Both
// services pass every float they emit through it — epsilons (p=0 or b=0
// means no privacy) and estimate values/intervals alike; an estimate's
// exact rendering survives in its Text field.
func JSONSafe(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

// WriteError writes the error envelope.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	WriteJSON(w, status, ErrorBody{Error: ErrorInfo{Code: code, Message: message}})
}

// WriteFault writes err's envelope under its Status mapping, with a
// Retry-After hint on a 503, and returns the wire code.
func WriteFault(w http.ResponseWriter, err error, fallback string) string {
	status, code := Status(err, fallback)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	WriteError(w, status, code, err.Error())
	return code
}

// Status maps a classified error to its HTTP status and wire code.
// Client-shaped input is 4xx; a transient durability failure (disk full, a
// torn write) is a retryable 503. Corruption of a sealed segment or a
// checkpoint is not transient, since no retry fixes it, so it is a plain
// 500, as is a recovered panic: a client fails fast instead of spending its
// retry budget on a request that cannot succeed. An error with no taxonomy
// kind is the client's request at fault, answered 400 with the service's
// fallback code ("bad_query", "bad_batch").
func Status(err error, fallback string) (int, string) {
	switch faults.Kind(err) {
	case faults.ErrUsage, faults.ErrBadQuery:
		return http.StatusBadRequest, telemetry.FaultCode(err)
	case faults.ErrBadInput, faults.ErrBadMeta, faults.ErrBadParams:
		return http.StatusUnprocessableEntity, telemetry.FaultCode(err)
	case faults.ErrInternal:
		return http.StatusInternalServerError, "internal"
	case faults.ErrCorruptCheckpoint:
		return http.StatusInternalServerError, telemetry.FaultCode(err)
	case faults.ErrPartialWrite:
		return http.StatusServiceUnavailable, telemetry.FaultCode(err)
	default:
		return http.StatusBadRequest, fallback
	}
}

// ReadBody reads a request body of at most limit bytes into buf's storage
// (buf may be nil). A declared length within the bound is read into exactly
// that many bytes; an unknown length reads one byte past the bound, so an
// oversized body is refused whole, with 413 naming the bound, rather than
// decoded from a truncated prefix. A body shorter than its declared length
// fails the read with 400. A refusal comes back as its status and message.
func ReadBody(r *http.Request, buf []byte, limit int64) (body []byte, status int, msg string) {
	body = buf
	var err error
	switch {
	case r.ContentLength > limit:
	case r.ContentLength > 0:
		body = slices.Grow(buf[:0], int(r.ContentLength))[:r.ContentLength]
		_, err = io.ReadFull(r.Body, body)
	default:
		read := bytes.NewBuffer(buf[:0])
		_, err = read.ReadFrom(io.LimitReader(r.Body, limit+1))
		body = read.Bytes()
	}
	if err != nil {
		return body, http.StatusBadRequest, "reading request body: " + err.Error()
	}
	if r.ContentLength > limit || int64(len(body)) > limit {
		return body, http.StatusRequestEntityTooLarge, "body exceeds the " + strconv.FormatInt(limit, 10) + "-byte bound"
	}
	return body, 0, ""
}

// Chassis is one service's HTTP front: its instrumented route mux, its
// admission semaphore, and the listener it serves on.
type Chassis struct {
	tel  *telemetry.Set
	name string
	sem  chan struct{}
	shed *telemetry.Counter
	mux  *http.ServeMux

	mu  sync.Mutex
	srv *http.Server
}

// New builds a chassis admitting at most maxInFlight requests at once. name
// ("server", "collector") is the noun of its 429 and drain messages; scrape,
// when non-nil, runs before each /metrics exposition to publish state kept
// outside the registry. The /v1/tracez, /healthz and /metrics routes and
// the JSON 404 for unknown paths are registered here.
func New(tel *telemetry.Set, maxInFlight int, name string, scrape func()) *Chassis {
	// Route paths, outcome codes and statuses appear as metric labels and
	// log values; they are code-chosen strings, not data.
	tel.Redact.Allow("/v1/tracez", "/healthz", "/metrics",
		"method_not_allowed", "not_found", "shed", "drain",
		"200", "400", "404", "405", "408", "413", "422", "429", "500", "503")
	c := &Chassis{
		tel:  tel,
		name: name,
		sem:  make(chan struct{}, maxInFlight),
		shed: tel.Metrics.Counter("privateclean_http_shed_total",
			"Requests shed with 429 because MaxInFlight was reached."),
		mux: http.NewServeMux(),
	}
	c.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, "not_found", "no route for "+r.URL.Path)
	})
	c.HandleGet("/v1/tracez", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{"traces": tel.Trace.RecentJSON()})
	})
	c.Handle("/healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	c.Handle("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if scrape != nil {
			scrape()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = tel.Metrics.WritePrometheus(w)
	})
	return c
}

// Handler returns the route mux (also usable under a test server or an
// external mux).
func (c *Chassis) Handler() http.Handler { return c.mux }

// Handle registers h at path behind the request metrics.
func (c *Chassis) Handle(path string, h http.HandlerFunc) {
	c.tel.Redact.Allow(path)
	c.mux.HandleFunc(path, c.instrument(path, h))
}

// HandleGet registers a GET-only route: any other method gets 405.
func (c *Chassis) HandleGet(path string, h http.HandlerFunc) {
	c.Handle(path, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET "+path)
			return
		}
		h(w, r)
	})
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
func (c *Chassis) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	// The route's gauge and histogram are resolved once, and its request
	// counter for a status on that status's first response.
	inflight := c.tel.Metrics.Gauge("privateclean_http_inflight",
		"Requests currently being handled.", telemetry.L("path", path))
	seconds := c.tel.Metrics.Histogram("privateclean_http_request_seconds",
		"Wall time of HTTP request handling.",
		telemetry.DurationBuckets, telemetry.L("path", path))
	var requests sync.Map // status -> *telemetry.Counter
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		inflight.Add(1)
		defer func() {
			inflight.Add(-1)
			n, ok := requests.Load(rec.status)
			if !ok {
				n, _ = requests.LoadOrStore(rec.status, c.tel.Metrics.Counter("privateclean_http_requests_total",
					"HTTP requests, by route and status.",
					telemetry.L("path", path), telemetry.L("status", strconv.Itoa(rec.status))))
			}
			n.(*telemetry.Counter).Inc()
			seconds.Observe(time.Since(start).Seconds())
		}()
		h(rec, r)
	}
}

// Admit takes an admission slot, or, when all are taken, sheds the request
// with 429 and a Retry-After hint and reports false: a full semaphore sheds
// at once rather than queueing work behind a deadline it would miss anyway.
// Every admitted request gives its slot back with Release.
func (c *Chassis) Admit(w http.ResponseWriter) bool {
	select {
	case c.sem <- struct{}{}:
		return true
	default:
		w.Header().Set("Retry-After", "1")
		c.shed.Inc()
		WriteError(w, http.StatusTooManyRequests, "shed", c.name+" at capacity; retry")
		return false
	}
}

// Release gives back a slot Admit took.
func (c *Chassis) Release() { <-c.sem }

// InFlight is the number of requests holding an admission slot.
func (c *Chassis) InFlight() int { return len(c.sem) }

// MaxInFlight is the admission bound.
func (c *Chassis) MaxInFlight() int { return cap(c.sem) }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, matching net/http.
func (c *Chassis) Serve(l net.Listener) error {
	srv := &http.Server{Handler: c.mux}
	c.mu.Lock()
	c.srv = srv
	c.mu.Unlock()
	return srv.Serve(l)
}

// ListenAndServe listens on addr and serves until Shutdown. The bound
// address is reported through ready (useful with ":0"); pass nil when not
// needed.
func (c *Chassis) ListenAndServe(addr string, ready chan<- net.Addr) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return faults.Wrap(faults.ErrUsage, err)
	}
	if ready != nil {
		ready <- l.Addr()
	}
	return c.Serve(l)
}

// Shutdown is the deadline-bounded graceful drain: stop accepting
// connections and wait, up to ctx's deadline, for in-flight requests. When
// the deadline forces the issue it closes the remaining connections and
// reports a typed fault: an aborted response is a partial write from the
// client's point of view, and it must not pass for a clean exit.
func (c *Chassis) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	srv := c.srv
	c.srv = nil
	c.mu.Unlock()
	if srv == nil {
		return nil
	}
	err := srv.Shutdown(ctx)
	if err == nil || errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	srv.Close()
	err = faults.Wrap(faults.ErrPartialWrite,
		fmt.Errorf("%s: drain aborted in-flight requests: %w", c.name, err))
	c.tel.Metrics.Counter("privateclean_http_drain_aborts_total",
		"Graceful drains that hit their deadline and force-closed connections.").Inc()
	c.tel.Log.Error("drain deadline forced connection abort", "op", "drain", telemetry.ErrAttr(err))
	return err
}
