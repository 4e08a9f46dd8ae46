package cleaning

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"privateclean/internal/csvio"
	"privateclean/internal/privacy"
	"privateclean/internal/provenance"
	"privateclean/internal/relation"
)

// The streaming-cleaning contract: for any composition of ops, StreamApply
// over windows of the relation must write the same CSV bytes as csvio.Write
// over the relation Apply cleaned in place, and leave the provenance store in
// the same state.

// windows reopens r's windows of at most size rows, one pass per call.
func windows(r *relation.Relation, size int) func() (relation.Iterator, error) {
	return func() (relation.Iterator, error) { return relation.NewSliceIterator(r, size), nil }
}

func metaFor(t *testing.T, r *relation.Relation) *privacy.ViewMeta {
	t.Helper()
	params := privacy.Params{P: map[string]float64{}, B: map[string]float64{}}
	for _, name := range r.Schema().DiscreteNames() {
		params.P[name] = 0.25
	}
	for _, name := range r.Schema().NumericNames() {
		params.B[name] = 1
	}
	meta, err := privacy.ViewMetaFor(r, params)
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

func provJSON(t *testing.T, s *provenance.Store) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// streamEqualsOneShot runs ops both ways over copies of r and demands
// identical bytes and provenance.
func streamEqualsOneShot(t *testing.T, r *relation.Relation, window int, ops ...Op) {
	t.Helper()
	meta := metaFor(t, r)

	oneShot := r.Clone()
	oneCtx := &Context{Rel: oneShot, Prov: provenance.NewStore(), Meta: meta}
	if err := Apply(oneCtx, ops...); err != nil {
		t.Fatalf("one-shot apply: %v", err)
	}
	var want bytes.Buffer
	if err := csvio.Write(&want, oneShot); err != nil {
		t.Fatal(err)
	}

	streamed := r.Clone()
	streamCtx := &Context{Prov: provenance.NewStore(), Meta: meta}
	var got bytes.Buffer
	res, err := StreamApply(streamCtx, windows(streamed, window), &got, ops...)
	if err != nil {
		t.Fatalf("stream apply (window %d): %v", window, err)
	}
	if got.String() != want.String() {
		t.Errorf("window %d: streamed CSV differs from one-shot clean:\ngot:\n%s\nwant:\n%s", window, got.String(), want.String())
	}
	if res.Rows != oneShot.NumRows() {
		t.Errorf("window %d: StreamResult.Rows = %d, want %d", window, res.Rows, oneShot.NumRows())
	}
	if res.Schema.String() != oneShot.Schema().String() {
		t.Errorf("window %d: StreamResult.Schema = %q, want %q", window, res.Schema, oneShot.Schema())
	}
	if sGot, sWant := provJSON(t, streamCtx.Prov), provJSON(t, oneCtx.Prov); sGot != sWant {
		t.Errorf("window %d: provenance differs:\ngot:  %s\nwant: %s", window, sGot, sWant)
	}
}

func TestStreamApplyMatchesApply(t *testing.T) {
	ops := []Op{
		FindReplace{Attr: "major", From: "Electrical Engineering and Computer Sciences", To: "EECS"},
		DictionaryMerge{Attr: "major", Mapping: map[string]string{"Mechanical E.": "Mech. Eng."}},
		Canonicalize{Attr: "instructor", Lowercase: true},
		NullifyInvalid{Attr: "section", Valid: func(v string) bool { return v != "3" }},
		Extract{SrcAttr: "major", NewAttr: "is_eng", F: func(v string) string {
			if strings.Contains(v, "E") {
				return "yes"
			}
			return "no"
		}},
		Transform{Attr: "is_eng", Label: "upper", F: strings.ToUpper},
	}
	for _, window := range []int{1, 2, 100} {
		streamEqualsOneShot(t, evalRel(t), window, ops...)
	}
}

// TestStreamApplyTransformRowsForked exercises the weighted (multi-attribute,
// forking) provenance path across many windows.
func TestStreamApplyTransformRowsForked(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	schema := relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.Discrete},
		relation.Column{Name: "b", Kind: relation.Discrete},
	)
	n := 200
	av := make([]string, n)
	bv := make([]string, n)
	for i := range av {
		av[i] = fmt.Sprintf("a%d", rng.Intn(4))
		bv[i] = fmt.Sprintf("b%d", rng.Intn(3))
	}
	r, err := relation.FromColumns(schema, nil, map[string][]string{"a": av, "b": bv})
	if err != nil {
		t.Fatal(err)
	}
	// a's new value depends on b, so rows sharing an a-value fork.
	fork := TransformRows{Attrs: []string{"a", "b"}, Label: "fork", F: func(vals []string) []string {
		if vals[1] == "b0" {
			return []string{"merged", vals[1]}
		}
		return []string{vals[0], vals[1]}
	}}
	for _, window := range []int{1, 7, 64, 1000} {
		streamEqualsOneShot(t, r, window, fork,
			FindReplace{Attr: "a", From: "a1", To: "a2"})
	}
}

func TestStreamApplyEmptyInput(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "major", Kind: relation.Discrete},
		relation.Column{Name: "score", Kind: relation.Numeric},
	)
	r := relation.New(schema)
	streamEqualsOneShot(t, r, 4,
		FindReplace{Attr: "major", From: "x", To: "y"},
		Extract{SrcAttr: "major", NewAttr: "initial", F: func(v string) string {
			if v == "" {
				return v
			}
			return v[:1]
		}})
}

// TestStreamApplyGlobalOps: the ops that compile from a summary of the whole
// input stream like any other, alone and behind ops that change what their
// summary sees.
func TestStreamApplyGlobalOps(t *testing.T) {
	global := []Op{
		Merge{Attr: "major", F: func(v string, domain []string) string { return domain[len(domain)-1] }},
		FDRepair{LHS: []string{"section"}, RHS: "instructor"},
		FDImpute{LHS: []string{"section"}, RHS: "instructor"},
		FDRepair{LHS: []string{"section", "major"}, RHS: "instructor"},
		MDRepair{Attr: "major", MaxDist: 2},
	}
	before := NullifyInvalid{Attr: "instructor", Valid: func(v string) bool { return v != "Jane Smith" }}
	for _, op := range global {
		for _, window := range []int{1, 2, 100} {
			streamEqualsOneShot(t, evalRel(t), window, op)
			streamEqualsOneShot(t, evalRel(t), window, before, op, FindReplace{Attr: "major", From: "Math", To: "EECS"})
		}
	}
	for _, window := range []int{1, 3} {
		streamEqualsOneShot(t, evalRel(t), window, global...)
	}
}

func TestStreamApplyWithoutProvenance(t *testing.T) {
	r := evalRel(t)
	var out bytes.Buffer
	ctx := &Context{} // no Prov, no Meta
	res, err := StreamApply(ctx, windows(r.Clone(), 2), &out,
		FindReplace{Attr: "major", From: "Math", To: "Maths"},
		TransformRows{Attrs: []string{"major"}, F: func(vals []string) []string { return vals }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != r.NumRows() {
		t.Fatalf("rows = %d, want %d", res.Rows, r.NumRows())
	}
	if !strings.Contains(out.String(), "Maths") {
		t.Fatal("transform not applied")
	}
}

func TestStreamApplyMissingDomainFails(t *testing.T) {
	r := evalRel(t)
	// Provenance requested but the attribute is absent from the metadata:
	// with no resident relation there is no fallback dirty domain.
	meta := &privacy.ViewMeta{Discrete: map[string]privacy.DiscreteMeta{}, Numeric: map[string]privacy.NumericMeta{}}
	var out bytes.Buffer
	ctx := &Context{Prov: provenance.NewStore(), Meta: meta}
	_, err := StreamApply(ctx, windows(r.Clone(), 3), &out,
		FindReplace{Attr: "major", From: "Math", To: "Maths"})
	if err == nil {
		t.Fatal("want error for missing dirty domain")
	}
	if !strings.Contains(err.Error(), "view metadata") {
		t.Fatalf("error %v does not explain the metadata requirement", err)
	}
}

// sampledIterator calls sample after every every-th window it yields.
type sampledIterator struct {
	relation.Iterator
	every, n int
	sample   func()
}

func (s *sampledIterator) Next() (*relation.Relation, error) {
	win, err := s.Iterator.Next()
	if s.n++; err == nil && s.n%s.every == 0 {
		s.sample()
	}
	return win, err
}

// TestStreamRepairsOutOfCore: FDImpute and MDRepair over a CSV many windows
// long keep only their summaries resident — per-group vote counts and a
// value histogram — so the heap grows by far less than the input, across
// both summary passes and the write pass.
func TestStreamRepairsOutOfCore(t *testing.T) {
	if testing.Short() {
		t.Skip("out-of-core soak skipped in -short mode")
	}
	var b strings.Builder
	b.WriteString("section,instructor,note\n")
	rows := 120_000
	for i := 0; i < rows; i++ {
		instructor := fmt.Sprintf("instructor-%02d", i%31)
		switch i % 7 {
		case 0:
			instructor = ""
		case 3:
			instructor += "x" // a misspelling MDRepair merges back
		}
		fmt.Fprintf(&b, "s%02d,%s,note-pad-pad-pad-pad-%d\n", i%29, instructor, i)
	}
	input := b.String()
	inputBytes := int64(len(input)) // ~5 MB
	path := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(path, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	prof, err := csvio.ProfileFile(path, csvio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := prof.Schema()
	if err != nil {
		t.Fatal(err)
	}
	params := privacy.Params{P: map[string]float64{"section": 0.2, "instructor": 0.2, "note": 0.2}}
	meta, err := privacy.ViewMetaFromProfile(schema, prof.Rows, prof.Domains, prof.Lows, prof.Deltas, params)
	if err != nil {
		t.Fatal(err)
	}
	// note's domain is one value per row: drop it from the clean's meta.
	// The profile keeps it, live in the baseline, for the iterators to
	// decode against; it is the profile's memory, not the clean's.
	delete(meta.Discrete, "note")

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	var peak uint64
	sample := func() {
		// Collect before sampling so HeapAlloc reflects the live set, not
		// uncollected per-window garbage.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapAlloc)
	}
	passes := 0
	open := func() (relation.Iterator, error) {
		passes++
		it, err := csvio.NewChunkIterator(path, prof, 1024)
		return &sampledIterator{Iterator: it, every: 16, sample: sample}, err
	}
	ctx := &Context{Prov: provenance.NewStore(), Meta: meta}
	res, err := StreamApply(ctx, open, io.Discard,
		FDImpute{LHS: []string{"section"}, RHS: "instructor"},
		MDRepair{Attr: "instructor", MaxDist: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != rows || passes != 3 {
		t.Fatalf("%d rows in %d passes, want %d rows in two summary passes and a write pass", res.Rows, passes, rows)
	}
	if peak == 0 {
		t.Fatal("no heap samples taken")
	}
	growth := int64(peak) - int64(base.HeapAlloc)
	if growth > inputBytes {
		t.Errorf("heap grew by %d bytes over baseline; want < %d (input size) for an out-of-core clean", growth, inputBytes)
	}
	t.Logf("input=%d bytes, heap growth=%d bytes", inputBytes, growth)
}
