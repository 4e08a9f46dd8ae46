package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTraceIDGeneration(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		tr, sp := NewTraceID(), NewSpanID()
		if !ValidTraceID(tr) {
			t.Fatalf("NewTraceID() = %q, not a valid trace ID", tr)
		}
		if !ValidSpanID(sp) {
			t.Fatalf("NewSpanID() = %q, not a valid span ID", sp)
		}
		if seen[tr] || seen[sp] {
			t.Fatalf("duplicate generated ID")
		}
		seen[tr], seen[sp] = true, true
	}
}

func TestValidTraceIDShape(t *testing.T) {
	good := strings.Repeat("ab", 16)
	if !ValidTraceID(good) {
		t.Fatalf("ValidTraceID(%q) = false", good)
	}
	for _, bad := range []string{
		"",
		strings.Repeat("0", 32),              // all zeros
		strings.Repeat("A", 32),              // uppercase
		strings.Repeat("a", 31),              // short
		strings.Repeat("a", 33),              // long
		strings.Repeat("g", 32),              // non-hex
		strings.Repeat("a", 30) + "\x00\x00", // control bytes
	} {
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) = true", bad)
		}
	}
	if !ValidSpanID(strings.Repeat("cd", 8)) {
		t.Fatal("ValidSpanID rejected a good ID")
	}
	if ValidSpanID(strings.Repeat("0", 16)) || ValidSpanID(good) {
		t.Fatal("ValidSpanID accepted zeros or a trace-length ID")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	traceID, spanID := NewTraceID(), NewSpanID()
	h := FormatTraceparent(traceID, spanID)
	gotTrace, gotSpan, ok := ParseTraceparent(h)
	if !ok || gotTrace != traceID || gotSpan != spanID {
		t.Fatalf("ParseTraceparent(%q) = (%q, %q, %v)", h, gotTrace, gotSpan, ok)
	}
	for _, bad := range []string{
		"",
		"01-" + traceID + "-" + spanID + "-01", // wrong version
		"00-" + strings.Repeat("0", 32) + "-" + spanID + "-01",  // zero trace
		"00-" + traceID + "-" + strings.Repeat("0", 16) + "-01", // zero parent
		"00-" + strings.ToUpper(traceID) + "-" + spanID + "-01", // uppercase
		"00-" + traceID + "-" + spanID,                          // missing flags
		"00-" + traceID + "-" + spanID + "-zz",                  // bad flags
		"00-" + traceID + "-" + spanID + "-01-extra",            // trailing field
		"<script>alert(1)</script>",                             // junk
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed context", bad)
		}
	}
}

// TestParseTraceparentAllocatesNothing: every request parses its
// traceparent header, so parsing allocates nothing whether the header is
// absent, valid (padded too), or malformed in length, separators or
// digits.
func TestParseTraceparentAllocatesNothing(t *testing.T) {
	traceID, spanID := NewTraceID(), NewSpanID()
	valid := FormatTraceparent(traceID, spanID)
	for _, h := range []string{
		"",
		valid,
		" " + valid + "\t",
		"00-" + traceID + "-" + spanID,
		"00-" + traceID[:31] + "-" + "-" + spanID + "-01", // a separator inside the trace ID
		"00_" + traceID + "-" + spanID + "-01",
		"00-" + traceID + "-" + spanID + "-0g",
		"<script>alert(1)</script>",
	} {
		var ok bool
		if n := testing.AllocsPerRun(100, func() { _, _, ok = ParseTraceparent(h) }); n != 0 {
			t.Errorf("ParseTraceparent(%q) allocates %.0f times", h, n)
		}
		if want := h == valid || h == " "+valid+"\t"; ok != want {
			t.Errorf("ParseTraceparent(%q) ok = %v, want %v", h, ok, want)
		}
	}
}

func TestSpanTraceContext(t *testing.T) {
	tr := NewTracer(NewRedactor())
	root := tr.StartSpan(nil, "privatize")
	child := tr.StartSpan(root, "chunk")
	if !ValidTraceID(root.TraceID) || !ValidSpanID(root.SpanID) || root.ParentID != "" {
		t.Fatalf("root context: %+v", root)
	}
	if child.TraceID != root.TraceID || child.ParentID != root.SpanID {
		t.Fatalf("child does not inherit context: %+v", child)
	}
	if got := root.Traceparent(); got != FormatTraceparent(root.TraceID, root.SpanID) {
		t.Fatalf("Traceparent() = %q", got)
	}
	child.End()
	root.End()
}

func TestStartRemoteSpanAdoption(t *testing.T) {
	tr := NewTracer(NewRedactor())
	remoteTrace, remoteSpan := NewTraceID(), NewSpanID()

	sp := tr.StartRemoteSpan(remoteTrace, remoteSpan, "collect_report")
	if sp.TraceID != remoteTrace || sp.ParentID != remoteSpan {
		t.Fatalf("remote context not adopted: %+v", sp)
	}
	sp.End()

	// Malformed context falls back to a fresh local trace — hostile header
	// bytes never become a trace ID.
	forged := tr.StartRemoteSpan("DROP TABLE spans", "xx", "collect_report")
	if forged.TraceID == "DROP TABLE spans" || !ValidTraceID(forged.TraceID) || forged.ParentID != "" {
		t.Fatalf("malformed remote context leaked into span: %+v", forged)
	}
	forged.End()
}

func TestSpanLinkVetting(t *testing.T) {
	tr := NewTracer(NewRedactor())
	sp := tr.StartSpan(nil, "fold")
	good := NewTraceID()
	sp.Link(good)
	sp.Link("SECRET-cell-value-42")
	sp.End()
	if len(sp.Links) != 2 {
		t.Fatalf("links = %v", sp.Links)
	}
	if sp.Links[0] != good {
		t.Fatalf("valid link altered: %q", sp.Links[0])
	}
	if !strings.HasPrefix(sp.Links[1], "[redacted:") || strings.Contains(sp.Links[1], "SECRET") {
		t.Fatalf("invalid link not redacted: %q", sp.Links[1])
	}
}

func TestTracerRingBound(t *testing.T) {
	tr := NewTracer(NewRedactor())
	tr.ringCap = 4
	var first *Span
	for i := 0; i < 10; i++ {
		sp := tr.StartSpan(nil, "privatize")
		if i == 0 {
			first = sp
		}
		sp.End()
	}
	roots := tr.Roots()
	if len(roots) != 4 {
		t.Fatalf("ring holds %d roots, want 4", len(roots))
	}
	for _, r := range roots {
		if r == first {
			t.Fatal("oldest root not evicted from the ring")
		}
	}
	if got := tr.RecentJSON(); len(got) != 4 {
		t.Fatalf("RecentJSON() has %d entries, want 4", len(got))
	}
}

func TestTraceSinkDurableAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")

	// First process run: one completed trace with a child and a link.
	sink, err := OpenTraceSink(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(NewRedactor())
	tr.SetSink(sink)
	root := tr.StartSpan(nil, "report_batch", A("rows", 5))
	link := NewTraceID()
	child := tr.StartSpan(root, "wal_append")
	child.Link(link)
	child.End()
	root.End() // export happens here, before any Flush/Close
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	lines, err := ReadTraceLines(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2:\n%+v", len(lines), lines)
	}
	if lines[0].Name != "report_batch" || lines[0].Trace != root.TraceID || lines[0].Parent != "" {
		t.Fatalf("root line: %+v", lines[0])
	}
	if lines[1].Name != "wal_append" || lines[1].Trace != root.TraceID || lines[1].Parent != root.SpanID {
		t.Fatalf("child line: %+v", lines[1])
	}
	if len(lines[1].Links) != 1 || lines[1].Links[0] != link {
		t.Fatalf("child links: %v", lines[1].Links)
	}
	if rows, ok := lines[0].Attrs["rows"].(float64); !ok || rows != 5 {
		t.Fatalf("root attrs: %v", lines[0].Attrs)
	}

	// Second process run appends; the first run's spans survive.
	sink2, err := OpenTraceSink(path)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := NewTracer(NewRedactor())
	tr2.SetSink(sink2)
	tr2.StartSpan(nil, "fold").End()
	if err := sink2.Close(); err != nil {
		t.Fatal(err)
	}
	lines, err = ReadTraceLines(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 || lines[2].Name != "fold" {
		t.Fatalf("after reopen: %+v", lines)
	}
}

func TestTracerFlushExportsOpenSpans(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")
	sink, err := OpenTraceSink(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(NewRedactor())
	tr.SetSink(sink)
	tr.StartSpan(nil, "collect") // never ended: the server died mid-stage
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines, err := ReadTraceLines(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || lines[0].Name != "collect" || !lines[0].Open {
		t.Fatalf("flushed open span: %+v", lines)
	}
}

func TestReadTraceLinesTornTail(t *testing.T) {
	dir := t.TempDir()

	// A torn final line (kill -9 mid-append) is tolerated.
	torn := filepath.Join(dir, "torn.jsonl")
	content := `{"trace":"` + strings.Repeat("ab", 16) + `","span":"` + strings.Repeat("cd", 8) + `","name":"fold","start":"2026-01-01T00:00:00Z","duration_ms":1}` + "\n" + `{"trace":"ab`
	if err := os.WriteFile(torn, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	lines, err := ReadTraceLines(torn)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if len(lines) != 1 || lines[0].Name != "fold" {
		t.Fatalf("torn-tail read: %+v", lines)
	}

	// Corruption anywhere else errors.
	mid := filepath.Join(dir, "mid.jsonl")
	bad := `{"trace":"ab` + "\n" + `{"trace":"` + strings.Repeat("ab", 16) + `","span":"` + strings.Repeat("cd", 8) + `","name":"fold","start":"2026-01-01T00:00:00Z","duration_ms":1}` + "\n"
	if err := os.WriteFile(mid, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTraceLines(mid); err == nil {
		t.Fatal("mid-file corruption not reported")
	}
}
