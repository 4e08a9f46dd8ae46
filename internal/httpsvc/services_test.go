package httpsvc_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"privateclean/internal/collect"
	"privateclean/internal/faults"
	"privateclean/internal/httpsvc"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/server"
	"privateclean/internal/telemetry"
)

// service is one of the two services on the chassis, with a valid POST to
// its main route.
type service struct {
	name     string
	handler  http.Handler
	serve    func(net.Listener) error
	shutdown func(context.Context) error
	tel      *telemetry.Set
	path     string
	body     []byte
}

// services builds the query server and the collector, each over a small
// fixture and its own telemetry set.
func services(t *testing.T) []service {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "category", Kind: relation.Discrete},
		relation.Column{Name: "value", Kind: relation.Numeric},
	)
	rel, err := relation.FromColumns(schema,
		map[string][]float64{"value": {10, 20, 20, 30}},
		map[string][]string{"category": {"a", "b", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	meta := &privacy.ViewMeta{
		Discrete: map[string]privacy.DiscreteMeta{
			"category": {Name: "category", P: 0.25, Domain: []string{"a", "b", "c"}},
		},
		Numeric: map[string]privacy.NumericMeta{"value": {Name: "value", B: 1, Delta: 20}},
		Rows:    rel.NumRows(),
	}
	serveTel := telemetry.Noop()
	srv, err := server.New(server.Config{Rel: rel, Meta: meta, Tel: serveTel})
	if err != nil {
		t.Fatal(err)
	}
	query, _ := json.Marshal(map[string]string{"query": "SELECT count(1) FROM R WHERE category = 'b'"})

	collectTel := telemetry.Noop()
	svc, err := collect.New(collect.Config{Dir: t.TempDir(), Meta: meta, Tel: collectTel})
	if err != nil {
		t.Fatal(err)
	}
	report, err := json.Marshal(collect.Batch{
		ID:        "batch-1",
		Mechanism: privacy.MechanismFingerprint(meta),
		Reports: []privacy.Report{{
			Discrete: map[string]string{"category": "b"},
			Numeric:  map[string]float64{"value": 21},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []service{
		{"serve", srv.Handler(), srv.Serve, srv.Shutdown, serveTel, "/v1/query", query},
		{"collect", svc.Handler(), svc.Serve, svc.Shutdown, collectTel, "/v1/report", report},
	}
}

// start serves s on a loopback listener and returns its address and the
// channel Serve's result arrives on.
func start(t *testing.T, s service) (string, <-chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.serve(l) }()
	return l.Addr().String(), served
}

// stall opens a connection and sends the headers and the first half of a
// POST of s.body, then waits until the handler is running: the request stays
// in flight until the caller writes the rest of the body on the returned
// connection.
func stall(t *testing.T, s service, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		s.path, addr, len(s.body))
	if _, err := conn.Write(s.body[:len(s.body)/2]); err != nil {
		t.Fatal(err)
	}
	inflight := s.tel.Metrics.Gauge("privateclean_http_inflight", "Requests currently being handled.", telemetry.L("path", s.path))
	for deadline := time.Now().Add(10 * time.Second); inflight.Value() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: the stalled request never reached its handler", s.name)
		}
	}
	return conn
}

// An unknown path gets a 404 in the JSON error envelope on both services,
// not net/http's plain-text page.
func TestUnknownRouteJSON(t *testing.T) {
	for _, s := range services(t) {
		defer s.shutdown(context.Background())
		for _, path := range []string{"/", "/nope", "/v1/nope", s.path + "/extra"} {
			rec := httptest.NewRecorder()
			s.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusNotFound {
				t.Fatalf("%s GET %s = %d, want 404 (%s)", s.name, path, rec.Code, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s GET %s: Content-Type %q, want application/json", s.name, path, ct)
			}
			var eb httpsvc.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("%s GET %s: body %q is not the JSON envelope: %v", s.name, path, rec.Body, err)
			}
			if eb.Error.Code != "not_found" {
				t.Fatalf("%s GET %s: code %q, want not_found", s.name, path, eb.Error.Code)
			}
		}
	}
}

// Shutdown, the drain both commands run on SIGTERM, lets an in-flight
// request complete with 200 while the listener is closed.
func TestGracefulShutdownDrains(t *testing.T) {
	for _, s := range services(t) {
		addr, served := start(t, s)
		conn := stall(t, s, addr)

		drained := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			drained <- s.shutdown(ctx)
		}()
		// Give Shutdown a moment to close the listener, then finish the
		// in-flight request; it must still complete successfully.
		time.Sleep(50 * time.Millisecond)
		if _, err := conn.Write(s.body[len(s.body)/2:]); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%s: in-flight request during shutdown: %v", s.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: in-flight request during shutdown finished with %d, want 200", s.name, resp.StatusCode)
		}
		if err := <-drained; err != nil {
			t.Fatalf("%s: Shutdown: %v", s.name, err)
		}
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Fatalf("%s: Serve returned %v, want ErrServerClosed", s.name, err)
		}
	}
}

// A drain whose deadline expires while a request is still in flight must
// force-close the connection, return a typed partial-write fault, and count
// the abort.
func TestDrainDeadlineAbortsInFlight(t *testing.T) {
	for _, s := range services(t) {
		addr, served := start(t, s)
		conn := stall(t, s, addr)

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		derr := s.shutdown(ctx)
		cancel()
		if derr == nil {
			t.Fatalf("%s: Shutdown returned nil with a request in flight past the deadline", s.name)
		}
		if faults.Kind(derr) != faults.ErrPartialWrite {
			t.Fatalf("%s: Shutdown fault kind = %v, want ErrPartialWrite (%v)", s.name, faults.Kind(derr), derr)
		}
		// The aborted client sees a closed connection, not a response.
		if resp, err := http.ReadResponse(bufio.NewReader(conn), nil); err == nil {
			resp.Body.Close()
			t.Fatalf("%s: in-flight request got %d despite the forced abort", s.name, resp.StatusCode)
		}
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Fatalf("%s: Serve returned %v, want ErrServerClosed", s.name, err)
		}
		var buf bytes.Buffer
		if err := s.tel.Metrics.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "privateclean_http_drain_aborts_total 1") {
			t.Fatalf("%s: drain abort not counted:\n%s", s.name, buf.String())
		}
	}
}

// A drain with no in-flight work finishes within the deadline and reports no
// fault.
func TestDrainCleanUnderDeadline(t *testing.T) {
	for _, s := range services(t) {
		addr, served := start(t, s)
		resp, err := http.Post("http://"+addr+s.path, "application/json", bytes.NewReader(s.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: warm-up request status = %d", s.name, resp.StatusCode)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err = s.shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatalf("%s: Shutdown: %v", s.name, err)
		}
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Fatalf("%s: Serve returned %v, want ErrServerClosed", s.name, err)
		}
	}
}
