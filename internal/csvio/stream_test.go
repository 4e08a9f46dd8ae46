package csvio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
)

// writeTemp stages CSV text as a file for the streaming scanners.
func writeTemp(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// drain concatenates every window of an iterator into one relation via a
// builder-equivalent append, checking window sizes along the way.
func drain(t *testing.T, it *ChunkIterator, window int) *relation.Relation {
	t.Helper()
	var parts []*relation.Relation
	for {
		w, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if w.NumRows() == 0 || w.NumRows() > window {
			t.Fatalf("window of %d rows (max %d)", w.NumRows(), window)
		}
		parts = append(parts, w)
	}
	if len(parts) == 0 {
		schema := it.Schema()
		return relation.New(schema)
	}
	schema := parts[0].Schema()
	numeric := make(map[string][]float64)
	discrete := make(map[string][]string)
	for _, c := range schema.Columns() {
		for _, w := range parts {
			switch c.Kind {
			case relation.Numeric:
				numeric[c.Name] = append(numeric[c.Name], w.MustNumeric(c.Name)...)
			case relation.Discrete:
				discrete[c.Name] = append(discrete[c.Name], w.MustDiscrete(c.Name)...)
			}
		}
	}
	rel, err := relation.FromColumns(schema, numeric, discrete)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// messyInputs covers the loader's edge cases: BOM, quoting, empty cells,
// NaN sentinels, mixed kinds, arity and numeric rejects.
var messyInputs = []struct {
	name string
	text string
	opts Options
}{
	{"clean", "major,score\nCS,1.5\nME,2\nCS,3\n", Options{}},
	{"bom and quotes", "\xef\xbb\xbfname,note\nalice,\"a, quoted\nnewline\"\nbob,plain\n", Options{}},
	{"empty cells", "d,x\n,1\na,\nb,NaN\n,\n", Options{}},
	{"all empty column", "d,x\na,\nb,\n", Options{}},
	{"skip arity", "a,b\n1,2\n1,2,3\n4,5\n", Options{OnRowError: RowErrorSkip}},
	{"skip bad numeric", "a,b\n1,x1\n2,x2\nInf,x3\nz,x4\n3,x5\n", Options{OnRowError: RowErrorSkip}},
	{"skip bad numeric forced", "a,b\n1,x1\nInf,x2\nz,x3\n3,x4\n",
		Options{OnRowError: RowErrorSkip, ForceKinds: map[string]relation.Kind{"a": relation.Numeric}}},
	{"forced kinds", "a,b\n1,2\n3,4\n", Options{ForceKinds: map[string]relation.Kind{"a": relation.Discrete}}},
	{"single column", "only\nv1\n\nv2\n", Options{}},
	{"header only", "a,b\n", Options{}},
	{"numbers with exponents", "x,y\n1e3,a\n-2.5E-2,b\n0x1p4,c\n", Options{}},
}

func TestProfileMatchesReadWithReport(t *testing.T) {
	for _, tc := range messyInputs {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTemp(t, tc.text)
			rel, rep, err := ReadFileWithReport(path, tc.opts)
			if err != nil {
				t.Fatalf("in-memory load: %v", err)
			}
			prof, err := ProfileFile(path, tc.opts)
			if err != nil {
				t.Fatalf("profile: %v", err)
			}
			schema, err := prof.Schema()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := schema.String(), rel.Schema().String(); got != want {
				t.Fatalf("schema %q, want %q", got, want)
			}
			if prof.Rows != rel.NumRows() {
				t.Fatalf("rows %d, want %d", prof.Rows, rel.NumRows())
			}
			if prof.Report.Skipped != rep.Skipped || prof.Report.Quarantined != rep.Quarantined {
				t.Fatalf("report %+v, want %+v", prof.Report, rep)
			}
			if !reflect.DeepEqual(prof.Report.BadRows, rep.BadRows) {
				t.Fatalf("bad rows %v, want %v", prof.Report.BadRows, rep.BadRows)
			}
			for _, name := range schema.DiscreteNames() {
				want, err := rel.Domain(name)
				if err != nil {
					t.Fatal(err)
				}
				got := prof.Domains[name]
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("domain(%s) = %v, want %v", name, got, want)
				}
			}
		})
	}
}

func TestChunkIteratorMatchesReadWithReport(t *testing.T) {
	for _, tc := range messyInputs {
		for _, window := range []int{1, 2, 1000} {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, window), func(t *testing.T) {
				path := writeTemp(t, tc.text)
				rel, _, err := ReadFileWithReport(path, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				prof, err := ProfileFile(path, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				it, err := NewChunkIterator(path, prof, window)
				if err != nil {
					t.Fatal(err)
				}
				defer it.Close()
				got := drain(t, it, window)
				if !got.Equal(rel) {
					t.Fatalf("streamed relation differs from in-memory load:\ngot  %v\nwant %v", got, rel)
				}
			})
		}
	}
}

func TestProfileQuarantineSameRowSet(t *testing.T) {
	text := "a,b\n1,ok\n1,2,3\nz,bad\n\"un,closed\nx\n2,fine\n"
	path := writeTemp(t, text)

	var memQ, streamQ bytes.Buffer
	_, memRep, err := ReadFileWithReport(path, Options{OnRowError: RowErrorQuarantine, Quarantine: &memQ})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileFile(path, Options{OnRowError: RowErrorQuarantine, Quarantine: &streamQ})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Report.Quarantined != memRep.Quarantined {
		t.Fatalf("quarantined %d, want %d", prof.Report.Quarantined, memRep.Quarantined)
	}
	// Sidecar ordering may differ between the modes (documented); the row
	// set must not.
	sortLines := func(b []byte) []string {
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		for i := range lines {
			lines[i] = strings.TrimSpace(lines[i])
		}
		return lines
	}
	mem, stream := sortLines(memQ.Bytes()), sortLines(streamQ.Bytes())
	memSet := make(map[string]int)
	for _, l := range mem {
		memSet[l]++
	}
	for _, l := range stream {
		memSet[l]--
	}
	for l, n := range memSet {
		if n != 0 {
			t.Fatalf("quarantine sidecar row sets differ at %q (delta %d)\nmem: %v\nstream: %v", l, n, mem, stream)
		}
	}
}

func TestProfileFailPolicyMatchesInMemoryError(t *testing.T) {
	cases := []string{
		"a,b\n1,2\n1,2,3\n",    // arity
		"a,b\n1,2\nz,3\n",      // bad numeric (column a inferred numeric? no — z makes it discrete; use forced)
		"a,b\n\"open,2\n1,2\n", // syntax
	}
	for i, text := range cases {
		path := writeTemp(t, text)
		opts := Options{}
		if i == 1 {
			opts.ForceKinds = map[string]relation.Kind{"a": relation.Numeric}
		}
		_, _, memErr := ReadFileWithReport(path, opts)
		_, profErr := ProfileFile(path, opts)
		if (memErr == nil) != (profErr == nil) {
			t.Fatalf("case %d: memErr=%v profErr=%v", i, memErr, profErr)
		}
		if memErr == nil {
			continue
		}
		if !errors.Is(profErr, faults.ErrBadInput) {
			t.Fatalf("case %d: profile error %v not ErrBadInput", i, profErr)
		}
		if memErr.Error() != profErr.Error() {
			t.Fatalf("case %d: error text differs\nmem:    %v\nstream: %v", i, memErr, profErr)
		}
	}
}

func TestProfileHeaderErrors(t *testing.T) {
	for _, text := range []string{"", "a,,c\n1,2,3\n", "a,a\n1,2\n"} {
		path := writeTemp(t, text)
		_, _, memErr := ReadFileWithReport(path, Options{})
		_, profErr := ProfileFile(path, Options{})
		if memErr == nil || profErr == nil {
			t.Fatalf("header %q accepted: mem=%v stream=%v", text, memErr, profErr)
		}
		if memErr.Error() != profErr.Error() {
			t.Fatalf("header %q: error text differs\nmem:    %v\nstream: %v", text, memErr, profErr)
		}
	}
}

// TestChunkIteratorLargeRandomized cross-checks a generated dataset large
// enough to span many windows, with malformed rows sprinkled in.
func TestChunkIteratorLargeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sb strings.Builder
	sb.WriteString("cat,val,label\n")
	for i := 0; i < 5000; i++ {
		switch {
		case i%701 == 0:
			sb.WriteString("too,many,fields,here\n")
		case i%997 == 0:
			sb.WriteString("a,notanumber,x\n")
		default:
			fmt.Fprintf(&sb, "c%d,%g,l%d\n", rng.Intn(7), rng.NormFloat64()*10, rng.Intn(3))
		}
	}
	path := writeTemp(t, sb.String())
	opts := Options{OnRowError: RowErrorSkip}
	rel, rep, err := ReadFileWithReport(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped == 0 {
		t.Fatal("test input should have skipped rows")
	}
	prof, err := ProfileFile(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Rows != rel.NumRows() || prof.Report.Skipped != rep.Skipped {
		t.Fatalf("profile rows/skips %d/%d, want %d/%d", prof.Rows, prof.Report.Skipped, rel.NumRows(), rep.Skipped)
	}
	it, err := NewChunkIterator(path, prof, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if got := drain(t, it, 512); !got.Equal(rel) {
		t.Fatal("streamed relation differs from in-memory load")
	}
}

// TestChunkIteratorRejectsChangedFile: a pass over a file that lost or
// gained kept rows or a column since it was profiled, or holds a discrete
// value the profile never saw, fails typed bad-input instead of panicking or
// yielding rows the profile does not describe.
func TestChunkIteratorRejectsChangedFile(t *testing.T) {
	const input = "major,score\nMath,1\nEECS,2\nMath,3\n"
	for name, changed := range map[string]string{
		"truncated":    "major,score\nMath,1\n",
		"appended":     input + "EECS,4\n",
		"column fewer": "major\nMath\nEECS\nMath\n",
		"column more":  "major,score,year\nMath,1,1\nEECS,2,2\nMath,3,3\n",
		"new value":    "major,score\nMath,1\nEECS,2\nPhysics,3\n",
	} {
		path := writeTemp(t, input)
		prof, err := ProfileFile(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(changed), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, window := range []int{1, 2, 3} {
			it, err := NewChunkIterator(path, prof, window)
			if err == nil {
				for err == nil {
					_, err = it.Next()
				}
				it.Close()
			}
			if !errors.Is(err, faults.ErrBadInput) || !strings.Contains(err.Error(), "file changed") {
				t.Errorf("%s, window %d: got %v, want ErrBadInput naming a changed file", name, window, err)
			}
		}
	}
}
