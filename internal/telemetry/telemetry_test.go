package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"privateclean/internal/faults"
)

func TestRedactorVocabulary(t *testing.T) {
	red := NewRedactor("/tmp/data.csv")
	for _, safe := range []string{"privatize", "csv_profile", "quarantine", "count", "/tmp/data.csv", ""} {
		if !red.Safe(safe) {
			t.Errorf("Safe(%q) = false, want true", safe)
		}
		if got := red.Clean(safe); got != safe {
			t.Errorf("Clean(%q) = %q, want unchanged", safe, got)
		}
	}
	secret := "Jane Doe, 555-0199"
	if red.Safe(secret) {
		t.Fatalf("Safe(%q) = true", secret)
	}
	got := red.Clean(secret)
	if strings.Contains(got, "Jane") || !strings.HasPrefix(got, "[redacted:") {
		t.Fatalf("Clean(%q) = %q, want a redaction tag", secret, got)
	}
	if red.Clean(secret) != got {
		t.Fatal("redaction tag is not stable")
	}
	red.Allow(secret)
	if red.Clean(secret) != secret {
		t.Fatal("Allow did not extend the vocabulary")
	}
}

func TestRedactorNilReceiver(t *testing.T) {
	var red *Redactor
	red.Allow("x") // must not panic
	if red.Safe("x") {
		t.Fatal("nil redactor allowed a non-baseline token")
	}
	if !red.Safe("privatize") {
		t.Fatal("nil redactor rejected a baseline token")
	}
	if got := red.Clean("secret"); !strings.HasPrefix(got, "[redacted:") {
		t.Fatalf("nil redactor Clean = %q", got)
	}
}

func TestFaultCode(t *testing.T) {
	cases := map[string]error{
		"ok":                 nil,
		"usage":              faults.Errorf(faults.ErrUsage, "x"),
		"bad_input":          faults.Errorf(faults.ErrBadInput, "x"),
		"corrupt_checkpoint": faults.Errorf(faults.ErrCorruptCheckpoint, "x"),
		"unclassified":       errors.New("plain"),
	}
	for want, err := range cases {
		if got := FaultCode(err); got != want {
			t.Errorf("FaultCode(%v) = %q, want %q", err, got, want)
		}
	}
}

func TestOpKind(t *testing.T) {
	if got := OpKind("transform(major:lower)"); got != "transform" {
		t.Fatalf("OpKind = %q", got)
	}
	if got := OpKind("trim"); got != "trim" {
		t.Fatalf("OpKind = %q", got)
	}
}

func TestLoggerRedactsJSON(t *testing.T) {
	var buf bytes.Buffer
	red := NewRedactor()
	log := NewLogger(&buf, slog.LevelDebug, "json", red)
	secretErr := faults.Errorf(faults.ErrBadInput, "row 3: cell %q unparsable", "SSN 123-45-6789")
	log.Info("csv load", "rows", 42, "policy", "quarantine", "cell", "SSN 123-45-6789", ErrAttr(secretErr))
	out := buf.String()
	if strings.Contains(out, "123-45-6789") {
		t.Fatalf("secret leaked into log output: %s", out)
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log output is not JSON: %v\n%s", err, out)
	}
	if rec["msg"] != "csv load" || rec["rows"] != float64(42) || rec["policy"] != "quarantine" {
		t.Fatalf("unexpected record: %v", rec)
	}
	if cell, _ := rec["cell"].(string); !strings.HasPrefix(cell, "[redacted:") {
		t.Fatalf("cell attr not redacted: %v", rec["cell"])
	}
	if errTok, _ := rec["err"].(string); !strings.HasPrefix(errTok, "bad_input:") {
		t.Fatalf("err attr not tokenized: %v", rec["err"])
	}
}

func TestLoggerLevelGate(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, slog.LevelWarn, "text", NewRedactor())
	log.Info("hidden")
	log.Warn("shown")
	out := buf.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "shown") {
		t.Fatalf("level gate wrong: %s", out)
	}
}

func TestParseLevelAndFormat(t *testing.T) {
	if _, err := ParseLevel("verbose"); faults.Kind(err) != faults.ErrUsage {
		t.Fatalf("ParseLevel fault = %v", err)
	}
	if _, err := ParseFormat("yaml"); faults.Kind(err) != faults.ErrUsage {
		t.Fatalf("ParseFormat fault = %v", err)
	}
	if lvl, err := ParseLevel(""); err != nil || lvl != slog.LevelWarn {
		t.Fatalf("default level = %v, %v", lvl, err)
	}
}

func TestNopLoggerDiscards(t *testing.T) {
	// Must not panic and must report disabled at every level.
	log := NopLogger()
	log.Error("dropped")
	if log.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("NopLogger claims to be enabled")
	}
}

func TestRegistryPrometheus(t *testing.T) {
	reg := NewRegistry(NewRedactor())
	reg.Counter("pc_rows_total", "Rows.", L("policy", "skip")).Add(5)
	reg.Counter("pc_rows_total", "Rows.", L("policy", "skip")).Inc()
	reg.Gauge("pc_eps", "Epsilon.").Set(1.25)
	h := reg.Histogram("pc_lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP pc_rows_total Rows.",
		"# TYPE pc_rows_total counter",
		`pc_rows_total{policy="skip"} 6`,
		"# TYPE pc_eps gauge",
		"pc_eps 1.25",
		"# TYPE pc_lat_seconds histogram",
		`pc_lat_seconds_bucket{le="0.1"} 1`,
		`pc_lat_seconds_bucket{le="1"} 2`,
		`pc_lat_seconds_bucket{le="+Inf"} 3`,
		"pc_lat_seconds_sum 5.55",
		"pc_lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryLabelRedaction(t *testing.T) {
	reg := NewRegistry(NewRedactor())
	reg.Counter("pc_bad", "Bad.", L("value", "alice@example.com")).Inc()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "alice@example.com") {
		t.Fatalf("label value leaked: %s", buf.String())
	}
	if !strings.Contains(buf.String(), "[redacted:") {
		t.Fatalf("label value not redacted: %s", buf.String())
	}
}

func TestRegistryCounterGuards(t *testing.T) {
	reg := NewRegistry(nil)
	c := reg.Counter("pc_guard_total", "")
	c.Add(-3)
	c.Add(math.Inf(1))
	c.Add(math.NaN())
	c.Add(2)
	if c.Value() != 2 {
		t.Fatalf("counter = %v, want 2", c.Value())
	}
	h := reg.Histogram("pc_guard_hist", "", []float64{1})
	h.Observe(math.NaN())
	if h.Count() != 0 {
		t.Fatal("histogram counted a NaN observation")
	}
}

func TestRegistryTypeClashPanics(t *testing.T) {
	reg := NewRegistry(nil)
	reg.Counter("pc_clash", "")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on type clash")
		}
	}()
	reg.Gauge("pc_clash", "")
}

func TestRegistrySnapshotTo(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(NewRedactor())
	reg.Counter("pc_x_total", "X.").Inc()

	prom := filepath.Join(dir, "m.prom")
	if err := reg.SnapshotTo(prom); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "pc_x_total 1") {
		t.Fatalf("prom snapshot: %s", data)
	}

	jsonPath := filepath.Join(dir, "m.json")
	if err := reg.SnapshotTo(jsonPath); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.Unmarshal(data, &vars); err != nil {
		t.Fatalf("expvar snapshot is not JSON: %v\n%s", err, data)
	}
	if vars["pc_x_total"] != float64(1) {
		t.Fatalf("expvar snapshot: %v", vars)
	}
}

func TestTracerTree(t *testing.T) {
	red := NewRedactor("in.csv")
	tr := NewTracer(red)
	root := tr.StartSpan(nil, "privatize", A("in", "in.csv"), A("cell", "secret-value"))
	child := tr.StartSpan(root, "csv_load", A("rows", 10))
	child.End()
	root.Set("err", errors.New("boom secret-value"))
	root.End()

	data, err := json.Marshal(tr.RecentJSON())
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if strings.Contains(out, "secret-value") {
		t.Fatalf("span attrs leaked: %s", out)
	}
	var trees []struct {
		Name     string         `json:"name"`
		Attrs    map[string]any `json:"attrs"`
		Children []struct {
			Name string `json:"name"`
		} `json:"children"`
	}
	if err := json.Unmarshal(data, &trees); err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 || trees[0].Name != "privatize" {
		t.Fatalf("trace roots: %v", trees)
	}
	if trees[0].Attrs["in"] != "in.csv" {
		t.Fatalf("allowed path was redacted: %v", trees[0].Attrs)
	}
	if len(trees[0].Children) != 1 || trees[0].Children[0].Name != "csv_load" {
		t.Fatalf("trace children: %v", trees[0].Children)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan(nil, "x", A("k", "v"))
	if sp != nil {
		t.Fatal("nil tracer returned a live span")
	}
	sp.Set("k", 1) // all must be no-ops, not panics
	sp.End()
	if got := tr.Roots(); got != nil {
		t.Fatalf("Roots = %v", got)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if sp.Traceparent() != "" || sp.Trace() != "" {
		t.Fatal("nil span carries trace context")
	}
	sp.Link("deadbeefdeadbeefdeadbeefdeadbeef")
	if got := tr.RecentJSON(); got != nil {
		t.Fatalf("RecentJSON = %v", got)
	}
}

func TestLedgerAppendAndCumulative(t *testing.T) {
	led := &Ledger{Version: LedgerVersion}
	base := LedgerEntry{
		Time:      time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC).Format(time.RFC3339),
		InputSHA:  "aaa",
		ParamsSHA: "ppp",
		Seed:      1,
		ChunkSize: 128,
		Rows:      600,
		PerAttribute: map[string]float64{
			"major":  2.0,
			"salary": 0.5,
		},
	}
	e1 := led.Append(base)
	if e1.Composed != 2.5 || e1.Duplicate {
		t.Fatalf("first release: %+v", e1)
	}

	// Byte-identical re-release: duplicate, no new spend.
	e2 := led.Append(base)
	if !e2.Duplicate {
		t.Fatal("identical release not marked duplicate")
	}
	if got := led.CumulativeFor("aaa"); got != 2.5 {
		t.Fatalf("cumulative after duplicate = %v, want 2.5", got)
	}

	// New seed: fresh randomness, composes under Theorem 1.
	fresh := base
	fresh.Seed = 2
	if e3 := led.Append(fresh); e3.Duplicate {
		t.Fatal("new-seed release marked duplicate")
	}
	if got := led.CumulativeFor("aaa"); got != 5.0 {
		t.Fatalf("cumulative after second release = %v, want 5.0", got)
	}
	if led.CumulativeFor("other") != 0 {
		t.Fatal("cumulative leaked across inputs")
	}
}

func TestLedgerUnboundedSanitized(t *testing.T) {
	led := &Ledger{Version: LedgerVersion}
	e := led.Append(LedgerEntry{
		InputSHA:  "aaa",
		ParamsSHA: "qqq",
		Seed:      1,
		PerAttribute: map[string]float64{
			"bounded": 1.5,
			"open":    math.Inf(1),
		},
	})
	if e.Composed != 1.5 {
		t.Fatalf("composed = %v", e.Composed)
	}
	if len(e.Unbounded) != 1 || e.Unbounded[0] != "open" {
		t.Fatalf("unbounded = %v", e.Unbounded)
	}
	if _, ok := e.PerAttribute["open"]; ok {
		t.Fatal("unbounded attr kept a numeric epsilon")
	}
	// The sanitized entry must round-trip through JSON (no +Inf).
	if _, err := json.Marshal(led); err != nil {
		t.Fatalf("ledger not JSON-encodable: %v", err)
	}
}

// TestLedgerAppendDeterministic appends one entry many times: the composed
// sum, whose float value depends on the order of its terms, and the list of
// unbounded attributes must come out the same every time, in name order.
func TestLedgerAppendDeterministic(t *testing.T) {
	perAttr := map[string]float64{"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.7, "e": 1e-16, "f": 3.3,
		"x": math.Inf(1), "y": math.NaN(), "z": math.Inf(1)}
	want := 0.0
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		want += perAttr[name]
	}
	led := &Ledger{Version: LedgerVersion}
	for i := 0; i < 200; i++ {
		e := led.Append(LedgerEntry{InputSHA: "aaa", ParamsSHA: "p", Seed: 1, PerAttribute: perAttr})
		if e.Composed != want {
			t.Fatalf("append %d: composed = %v, want %v (the name-order sum)", i, e.Composed, want)
		}
		if got := strings.Join(e.Unbounded, ","); got != "x,y,z" {
			t.Fatalf("append %d: unbounded = %v, want x,y,z", i, e.Unbounded)
		}
	}
}

func TestLedgerLoadWriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.csv"+LedgerFileSuffix)

	led, err := LoadLedger(path)
	if err != nil {
		t.Fatalf("missing ledger should load empty: %v", err)
	}
	led.Append(LedgerEntry{InputSHA: "aaa", ParamsSHA: "p", Seed: 1, PerAttribute: map[string]float64{"a": 1}})
	if err := led.WriteTo(path); err != nil {
		t.Fatal(err)
	}
	again, err := LoadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Entries) != 1 || again.CumulativeFor("aaa") != 1 {
		t.Fatalf("round trip: %+v", again)
	}

	// Corrupt and wrong-version ledgers are metadata faults.
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLedger(path); faults.Kind(err) != faults.ErrBadMeta {
		t.Fatalf("corrupt ledger fault = %v", err)
	}
	if err := os.WriteFile(path, []byte(`{"version":99,"entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLedger(path); faults.Kind(err) != faults.ErrBadMeta {
		t.Fatalf("wrong-version fault = %v", err)
	}
}

func TestDefaultSetIsNoop(t *testing.T) {
	s := Default()
	if s == nil || s.Log == nil || s.Metrics == nil || s.Redact == nil {
		t.Fatalf("Default() = %+v", s)
	}
	// Using the noop set must be safe end to end.
	s.Log.Info("dropped")
	s.Metrics.Counter("pc_noop_total", "").Inc()
	sp := s.Trace.StartSpan(nil, "x")
	sp.End()

	installed := &Set{Log: NopLogger(), Metrics: NewRegistry(nil), Trace: NewTracer(nil), Redact: NewRedactor()}
	SetDefault(installed)
	if Default() != installed {
		t.Fatal("SetDefault did not install")
	}
	SetDefault(nil)
	if Default() == installed || Default() == nil {
		t.Fatal("SetDefault(nil) did not restore a noop set")
	}
}
