package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"privateclean/internal/privacy"
	"privateclean/internal/telemetry"
)

// secretMark is a distinctive substring planted in every cell of the test
// input; it must never appear in any telemetry sink.
const secretMark = "XSECRETX"

// writeSecretCSV writes a CSV whose every discrete cell carries secretMark,
// plus one malformed (wrong-arity) row to exercise the quarantine path.
func writeSecretCSV(t *testing.T, dir string) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("major,score\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "%s-major-%d,%d\n", secretMark, i%5, i%10)
	}
	sb.WriteString(secretMark + "-dangling,1,extra-field\n") // arity error
	path := filepath.Join(dir, "secret.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPrivatizeTelemetryAcceptance is the end-to-end observability check:
// one privatize run with every telemetry flag on must produce a valid
// Prometheus exposition, a span tree covering load -> chunks -> finalize, a
// ledger whose composed epsilon matches the released metadata, and — the
// privacy contract — no input cell value in any sink.
func TestPrivatizeTelemetryAcceptance(t *testing.T) {
	dir := t.TempDir()
	data := writeSecretCSV(t, dir)
	private := filepath.Join(dir, "private.csv")
	metaPath := filepath.Join(dir, "meta.json")
	metricsPath := filepath.Join(dir, "m.prom")
	tracePath := filepath.Join(dir, "t.json")
	ledgerPath := filepath.Join(dir, "budget.ledger.json")

	var logs bytes.Buffer
	oldDest := logDest
	logDest = &logs
	defer func() { logDest = oldDest }()

	args := []string{"privatize", "-in", data, "-out", private, "-meta", metaPath,
		"-p", "0.15", "-b", "0.5", "-seed", "7", "-chunk", "64",
		"-on-row-error", "quarantine",
		"-log-level", "debug", "-log-format", "json",
		"-metrics-out", metricsPath, "-trace-out", tracePath, "-ledger", ledgerPath}
	if err := run(args); err != nil {
		t.Fatalf("privatize: %v", err)
	}

	// Structured logs: every line is valid JSON and the run left debug
	// evidence of chunks and the quarantined row.
	if logs.Len() == 0 {
		t.Fatal("no structured logs at -log-level debug")
	}
	sc := bufio.NewScanner(bytes.NewReader(logs.Bytes()))
	var sawMalformed, sawFinished bool
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, sc.Text())
		}
		switch rec["msg"] {
		case "malformed row":
			sawMalformed = true
		case "privatize finished":
			sawFinished = true
		}
	}
	if !sawMalformed || !sawFinished {
		t.Fatalf("missing expected log records (malformed=%v finished=%v):\n%s",
			sawMalformed, sawFinished, logs.String())
	}

	// Metrics snapshot: well-formed Prometheus text exposition with the core
	// pipeline series present.
	promData, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	prom := string(promData)
	sampleRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)
	for _, line := range strings.Split(strings.TrimSpace(prom), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sampleRE.MatchString(line) {
			t.Errorf("invalid Prometheus sample line: %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE privateclean_privatize_runs_total counter",
		"privateclean_rows_released_total 200",
		// 1: the schema comes from the kind scan, so the job's load is the
		// one that counts the bad row.
		`privateclean_csv_rows_malformed_total{code="arity",policy="quarantine"} 1`,
		"# TYPE privateclean_chunk_seconds histogram",
		"# TYPE privateclean_epsilon_composed gauge",
		"privateclean_chunks_total 4",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}

	// Trace sink: JSONL, one span per line, all sharing the root privatize
	// span's trace ID, with the pipeline stages parented beneath it.
	lines, err := telemetry.ReadTraceLines(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var root *telemetry.TraceLine
	stages := map[string]int{}
	for i := range lines {
		ln := &lines[i]
		if !telemetry.ValidTraceID(ln.Trace) || !telemetry.ValidSpanID(ln.Span) {
			t.Fatalf("span %q has malformed IDs: trace=%q span=%q", ln.Name, ln.Trace, ln.Span)
		}
		if ln.Name == "privatize" {
			if root != nil {
				t.Fatalf("multiple privatize roots in trace sink")
			}
			root = ln
			continue
		}
		stages[ln.Name]++
	}
	if root == nil || root.Parent != "" {
		t.Fatalf("no root privatize span in trace sink:\n%s", traceData)
	}
	for i := range lines {
		if lines[i].Trace != root.Trace {
			t.Fatalf("span %q trace %s does not match root trace %s", lines[i].Name, lines[i].Trace, root.Trace)
		}
	}
	if stages["csv_profile"] != 1 || stages["finalize"] != 1 || stages["chunk"] < 1 {
		t.Fatalf("trace sink missing stages: %v", stages)
	}

	// Ledger: the composed epsilon must match the Theorem 1 composition of
	// the released metadata.
	meta := &privacy.ViewMeta{}
	metaData, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(metaData, meta); err != nil {
		t.Fatal(err)
	}
	led, err := telemetry.LoadLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(led.Entries) != 1 {
		t.Fatalf("ledger entries = %d, want 1", len(led.Entries))
	}
	entry := led.Entries[0]
	if math.Abs(entry.Composed-meta.TotalEpsilon()) > 1e-9 {
		t.Fatalf("ledger composed = %v, meta composition = %v", entry.Composed, meta.TotalEpsilon())
	}
	if entry.Rows != 200 || entry.Duplicate {
		t.Fatalf("ledger entry: %+v", entry)
	}

	// The privacy contract: no cell value in any telemetry sink. (The
	// quarantine sidecar intentionally holds raw rows — it is provider-side
	// data, not telemetry.)
	ledgerData, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	sinks := map[string]string{
		"logs":    logs.String(),
		"metrics": prom,
		"trace":   string(traceData),
		"ledger":  string(ledgerData),
	}
	for name, content := range sinks {
		if strings.Contains(content, secretMark) {
			t.Errorf("%s sink leaked a cell value:\n%s", name, content)
		}
	}
}

// TestPrivatizeLedgerAccumulates checks the session semantics: re-running the
// byte-identical release adds no spend, while a fresh seed composes.
func TestPrivatizeLedgerAccumulates(t *testing.T) {
	dir := t.TempDir()
	data := writeTempCSV(t, dir)
	metaPath := filepath.Join(dir, "meta.json")
	ledgerPath := filepath.Join(dir, "budget.ledger.json")

	runOnce := func(out string, seed string) {
		t.Helper()
		args := []string{"privatize", "-in", data, "-out", filepath.Join(dir, out),
			"-meta", metaPath, "-p", "0.15", "-b", "0.5", "-seed", seed,
			"-discrete", "score", "-ledger", ledgerPath}
		if err := run(args); err != nil {
			t.Fatalf("privatize(seed=%s): %v", seed, err)
		}
	}
	runOnce("v1.csv", "3")
	runOnce("v2.csv", "3") // identical release: duplicate
	runOnce("v3.csv", "4") // fresh randomness: composes

	led, err := telemetry.LoadLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(led.Entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(led.Entries))
	}
	if led.Entries[0].Duplicate || !led.Entries[1].Duplicate || led.Entries[2].Duplicate {
		t.Fatalf("duplicate flags wrong: %+v", led.Entries)
	}
	per := led.Entries[0].Composed
	got := led.CumulativeFor(led.Entries[0].InputSHA)
	if math.Abs(got-2*per) > 1e-9 {
		t.Fatalf("cumulative = %v, want %v (two distinct releases)", got, 2*per)
	}
}

// TestTelemetryFlagValidation: bad observability flag values are usage
// faults, not silent fallbacks.
func TestTelemetryFlagValidation(t *testing.T) {
	dir := t.TempDir()
	data := writeTempCSV(t, dir)
	for _, args := range [][]string{
		{"privatize", "-in", data, "-out", filepath.Join(dir, "o.csv"), "-meta", filepath.Join(dir, "m.json"), "-log-level", "loud"},
		{"describe", "-in", data, "-log-format", "yaml"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted a bad telemetry flag", args)
		}
	}
}
