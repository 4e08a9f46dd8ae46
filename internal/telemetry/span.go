package telemetry

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records spans for the pipeline stages: CSV load, per-chunk
// privatize, checkpoint I/O, resume truncation, cleaning, query estimation,
// and — since the collection pipeline became distributed — client batch
// randomization, report ingestion, and WAL compaction folds.
//
// Every span carries W3C-style trace context: a 16-byte trace ID shared by
// all spans of one logical operation (possibly across processes), an 8-byte
// span ID, and the parent's span ID. A span may additionally record *links*
// to other trace IDs, which is how an asynchronous compaction fold points
// back at the traces of the batches it folds without pretending they are its
// parents.
//
// Completed root spans are retained in a bounded in-memory ring (serving the
// /v1/tracez endpoints) and, when a sink is attached, exported as JSONL — so
// a long-running server neither grows without bound nor loses its trace
// history on restart.
//
// A nil *Tracer is the disabled tracer: StartSpan returns a nil *Span, and
// every *Span method is nil-safe, so instrumented code needs no branching.
type Tracer struct {
	red     *Redactor
	ringCap int

	mu   sync.Mutex
	open []*Span // started, not yet ended root spans
	ring []*Span // completed root spans, oldest first, bounded by ringCap
	sink *TraceSink
}

// DefaultRingCap bounds the completed-trace ring.
const DefaultRingCap = 128

// NewTracer builds an enabled tracer vetting span attributes against red.
func NewTracer(red *Redactor) *Tracer {
	return &Tracer{red: red, ringCap: DefaultRingCap}
}

// SetSink attaches the durable JSONL exporter: every root span is written to
// it when it ends (and on Flush). Attach before instrumented code runs.
func (t *Tracer) SetSink(s *TraceSink) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = s
}

// idFallback feeds hex IDs if crypto/rand ever fails (it cannot on supported
// platforms): tracing degrades to counter IDs rather than panicking.
var idFallback atomic.Uint64

func newHexID(nbytes int) string {
	buf := make([]byte, nbytes)
	if _, err := crand.Read(buf); err != nil {
		binary.LittleEndian.PutUint64(buf, idFallback.Add(1))
	}
	const hexdigits = "0123456789abcdef"
	out := make([]byte, 2*nbytes)
	for i, b := range buf {
		out[2*i] = hexdigits[b>>4]
		out[2*i+1] = hexdigits[b&0xf]
	}
	return string(out)
}

// NewTraceID returns a fresh random 32-hex-digit trace ID.
func NewTraceID() string { return newHexID(16) }

// NewSpanID returns a fresh random 16-hex-digit span ID.
func NewSpanID() string { return newHexID(8) }

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ValidTraceID reports whether s is a well-formed, nonzero trace ID. The
// shape check is the injection guard: trace IDs arrive over the network
// (traceparent headers, batch fields), and only 32 lowercase hex digits may
// pass into spans, links, or sinks verbatim.
func ValidTraceID(s string) bool {
	return len(s) == 32 && isLowerHex(s) && s != strings.Repeat("0", 32)
}

// ValidSpanID is ValidTraceID for 16-hex-digit span IDs.
func ValidSpanID(s string) bool {
	return len(s) == 16 && isLowerHex(s) && s != strings.Repeat("0", 16)
}

// FormatTraceparent renders a W3C traceparent header value (version 00,
// sampled flag set).
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// ParseTraceparent reads a traceparent header value strictly: version 00,
// 32-hex trace ID, 16-hex parent span ID, 2-hex flags. Anything else is
// rejected, so arbitrary header bytes can never ride a trace context into a
// telemetry sink.
func ParseTraceparent(h string) (traceID, parentSpanID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) != 4 || parts[0] != "00" {
		return "", "", false
	}
	if !ValidTraceID(parts[1]) || !ValidSpanID(parts[2]) {
		return "", "", false
	}
	if len(parts[3]) != 2 || !isLowerHex(parts[3]) {
		return "", "", false
	}
	return parts[1], parts[2], true
}

// Attr is one span attribute.
type Attr struct {
	Key   string
	Value any
}

// A builds an Attr.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Span is one timed stage. Fields are exported for rendering; mutate only
// through the methods.
type Span struct {
	t      *Tracer
	parent *Span

	Name string
	// TraceID/SpanID/ParentID are the W3C-style trace context. ParentID is
	// empty for a root span with no remote parent.
	TraceID  string
	SpanID   string
	ParentID string
	Begin    time.Time
	Finish   time.Time
	Attrs    []Attr
	// Links are trace IDs of causally related but non-parent traces (e.g.
	// the batches a compaction fold covers).
	Links    []string
	Children []*Span
}

// StartSpan opens a span under parent (nil parent means a new root with a
// fresh trace ID) and returns it; call End when the stage finishes. String
// attribute values are vetted through the tracer's redactor at record time,
// so raw data never lives in the trace.
func (t *Tracer) StartSpan(parent *Span, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{t: t, parent: parent, Name: name, Begin: time.Now(),
		SpanID: NewSpanID(), Attrs: t.vet(attrs)}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == nil {
		sp.TraceID = NewTraceID()
		t.open = append(t.open, sp)
	} else {
		sp.TraceID = parent.TraceID
		sp.ParentID = parent.SpanID
		parent.Children = append(parent.Children, sp)
	}
	return sp
}

// StartRemoteSpan opens a root span that continues a trace started in
// another process: it adopts the given trace ID and records the remote
// parent span ID. Invalid context (wrong shape, all zeros) falls back to a
// fresh local trace, so a malformed or hostile traceparent degrades to a new
// root instead of injecting bytes into the trace.
func (t *Tracer) StartRemoteSpan(traceID, parentSpanID, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	sp := t.StartSpan(nil, name, attrs...)
	t.mu.Lock()
	defer t.mu.Unlock()
	if ValidTraceID(traceID) {
		sp.TraceID = traceID
		if ValidSpanID(parentSpanID) {
			sp.ParentID = parentSpanID
		}
	}
	return sp
}

// Traceparent renders this span's context as a traceparent header value for
// propagation to the next hop; empty for a nil span.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.TraceID, s.SpanID)
}

// Trace returns the span's trace ID; empty for a nil span.
func (s *Span) Trace() string {
	if s == nil {
		return ""
	}
	return s.TraceID
}

// Link records a causal link to another trace. The ID must be a well-formed
// trace ID; anything else is replaced by its redaction tag — link values can
// originate in on-disk batch records, and a corrupted or forged field must
// not pass into sinks verbatim.
func (s *Span) Link(traceID string) {
	if s == nil {
		return
	}
	if !ValidTraceID(traceID) {
		traceID = s.t.red.Clean(traceID)
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.Links = append(s.Links, traceID)
}

// End closes the span. Ending twice keeps the first finish time. Ending a
// root span moves it from the open set into the completed ring and exports
// it to the attached sink.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	if !s.Finish.IsZero() {
		t.mu.Unlock()
		return
	}
	s.Finish = time.Now()
	var sink *TraceSink
	var lines []TraceLine
	if s.parent == nil {
		for i, o := range t.open {
			if o == s {
				t.open = append(t.open[:i], t.open[i+1:]...)
				break
			}
		}
		t.ring = append(t.ring, s)
		if len(t.ring) > t.ringCap {
			t.ring = t.ring[len(t.ring)-t.ringCap:]
		}
		if t.sink != nil {
			sink, lines = t.sink, s.toLines(s.Finish)
		}
	}
	t.mu.Unlock()
	// File I/O happens outside the tracer lock; the sink serializes itself.
	if sink != nil {
		_ = sink.writeLines(lines)
	}
}

// Set attaches an attribute to an open span (vetted like StartSpan's).
func (s *Span) Set(key string, value any) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.Attrs = append(s.Attrs, s.t.vetOne(Attr{Key: key, Value: value}))
}

// vet redacts string-valued attributes; errors are reduced to fault codes.
func (t *Tracer) vet(attrs []Attr) []Attr {
	if len(attrs) == 0 {
		return nil
	}
	out := make([]Attr, len(attrs))
	for i, a := range attrs {
		out[i] = t.vetOne(a)
	}
	return out
}

func (t *Tracer) vetOne(a Attr) Attr {
	switch v := a.Value.(type) {
	case string:
		a.Value = t.red.Clean(v)
	case error:
		a.Value = errToken(v)
	case int, int64, uint64, float64, bool, time.Duration:
		// numeric/boolean values carry no cells
	default:
		a.Value = t.red.Clean(fmt.Sprint(v))
	}
	return a
}

// Roots returns the retained root spans: the completed ring (oldest first)
// followed by the still-open roots.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, len(t.ring)+len(t.open))
	out = append(out, t.ring...)
	return append(out, t.open...)
}

// Flush exports every still-open root span to the sink (duration measured to
// now, marked open) and syncs it, so a run that dies mid-stage still leaves
// its spans in the JSONL file. Completed roots were already exported when
// they ended.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	sink := t.sink
	var lines []TraceLine
	if sink != nil {
		now := time.Now()
		for _, o := range t.open {
			lines = append(lines, o.toLines(now)...)
		}
	}
	t.mu.Unlock()
	if sink == nil {
		return nil
	}
	if len(lines) > 0 {
		if err := sink.writeLines(lines); err != nil {
			return err
		}
	}
	return sink.Sync()
}

// spanJSON is the serialized span shape.
type spanJSON struct {
	Name       string         `json:"name"`
	Trace      string         `json:"trace,omitempty"`
	Span       string         `json:"span,omitempty"`
	Parent     string         `json:"parent,omitempty"`
	Start      string         `json:"start"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Links      []string       `json:"links,omitempty"`
	Children   []spanJSON     `json:"children,omitempty"`
}

func (s *Span) toJSON() spanJSON {
	end := s.Finish
	if end.IsZero() {
		end = s.Begin
	}
	out := spanJSON{
		Name:       s.Name,
		Trace:      s.TraceID,
		Span:       s.SpanID,
		Parent:     s.ParentID,
		Start:      s.Begin.UTC().Format(time.RFC3339Nano),
		DurationMS: float64(end.Sub(s.Begin)) / float64(time.Millisecond),
		Links:      s.Links,
	}
	if len(s.Attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.Attrs))
		for _, a := range s.Attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.Children {
		out.Children = append(out.Children, c.toJSON())
	}
	return out
}

// toLines flattens the span tree into exportable JSONL records. Open spans
// (no finish yet) measure their duration to now and are marked open. Callers
// hold the tracer lock.
func (s *Span) toLines(now time.Time) []TraceLine {
	end, open := s.Finish, false
	if end.IsZero() {
		end, open = now, true
	}
	line := TraceLine{
		Trace:      s.TraceID,
		Span:       s.SpanID,
		Parent:     s.ParentID,
		Name:       s.Name,
		Start:      s.Begin.UTC().Format(time.RFC3339Nano),
		DurationMS: float64(end.Sub(s.Begin)) / float64(time.Millisecond),
		Open:       open,
		Links:      s.Links,
	}
	if len(s.Attrs) > 0 {
		line.Attrs = make(map[string]any, len(s.Attrs))
		for _, a := range s.Attrs {
			line.Attrs[a.Key] = a.Value
		}
	}
	out := []TraceLine{line}
	for _, c := range s.Children {
		out = append(out, c.toLines(now)...)
	}
	return out
}

// RecentJSON returns the serialized completed-trace ring, oldest first — the
// /v1/tracez payload.
func (t *Tracer) RecentJSON() []any {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]any, 0, len(t.ring))
	for _, r := range t.ring {
		out = append(out, r.toJSON())
	}
	return out
}
