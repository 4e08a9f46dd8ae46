package csvio

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"privateclean/internal/relation"
)

func TestReadInference(t *testing.T) {
	csv := "major,score,section\nME,4.5,1\nEE,3,2\nCS,,3\n"
	r, _, err := ReadWithReport(strings.NewReader(csv), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Discrete("major"); err != nil {
		t.Fatal("major should be discrete")
	}
	if _, err := r.Numeric("score"); err != nil {
		t.Fatal("score should be numeric")
	}
	if _, err := r.Numeric("section"); err != nil {
		t.Fatal("section should infer numeric")
	}
	scores := r.MustNumeric("score")
	if scores[0] != 4.5 || !math.IsNaN(scores[2]) {
		t.Fatalf("scores = %v", scores)
	}
}

func TestReadForceKinds(t *testing.T) {
	csv := "id,score\n1,4\n2,3\n"
	r, _, err := ReadWithReport(strings.NewReader(csv), Options{ForceKinds: map[string]relation.Kind{"id": relation.Discrete}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Discrete("id"); err != nil {
		t.Fatal("forced kind ignored")
	}
	if r.MustDiscrete("id")[1] != "2" {
		t.Fatalf("id column = %v", r.MustDiscrete("id"))
	}
}

func TestReadEmptyCellsBecomeNull(t *testing.T) {
	// (A fully blank line would be skipped by encoding/csv, so the empty
	// cell sits next to a populated one.)
	csv := "major,idx\nME,1\n,2\nEE,3\n"
	r, _, err := ReadWithReport(strings.NewReader(csv), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.MustDiscrete("major")[1] != relation.Null {
		t.Fatalf("empty cell = %q", r.MustDiscrete("major")[1])
	}
}

func TestReadAllEmptyColumnIsDiscrete(t *testing.T) {
	csv := "a,b\n1,\n2,\n"
	r, _, err := ReadWithReport(strings.NewReader(csv), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Discrete("b"); err != nil {
		t.Fatal("all-empty column should default to discrete")
	}
}

func TestReadErrors(t *testing.T) {
	if _, _, err := ReadWithReport(strings.NewReader(""), Options{}); err == nil {
		t.Fatal("want error for missing header")
	}
	if _, _, err := ReadWithReport(strings.NewReader("a,b\n1\n"), Options{}); err == nil {
		t.Fatal("want error for ragged rows (encoding/csv)")
	}
	// Forced numeric with a non-numeric cell.
	_, _, err := ReadWithReport(strings.NewReader("a\nxyz\n"), Options{ForceKinds: map[string]relation.Kind{"a": relation.Numeric}})
	if err == nil {
		t.Fatal("want parse error for forced numeric")
	}
	// Duplicate header.
	if _, _, err := ReadWithReport(strings.NewReader("a,a\n1,2\n"), Options{}); err == nil {
		t.Fatal("want duplicate-column error")
	}
}

func TestWriteRoundTrip(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "major", Kind: relation.Discrete},
		relation.Column{Name: "score", Kind: relation.Numeric},
	)
	orig, err := relation.FromColumns(schema,
		map[string][]float64{"score": {4.25, math.NaN(), 3}},
		map[string][]string{"major": {"ME", relation.Null, "a,b \"quoted\""}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadWithReport(bytes.NewReader(buf.Bytes()), Options{ForceKinds: map[string]relation.Kind{"major": relation.Discrete}})
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Equal(back) {
		t.Fatalf("round trip mismatch:\norig %v\nback %v", orig, back)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rel.csv")
	schema := relation.MustSchema(relation.Column{Name: "d", Kind: relation.Discrete})
	orig, _ := relation.FromColumns(schema, nil, map[string][]string{"d": {"x", "y"}})
	if err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadFileWithReport(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Equal(back) {
		t.Fatal("file round trip mismatch")
	}
	if _, _, err := ReadFileWithReport(filepath.Join(dir, "missing.csv"), Options{}); err == nil {
		t.Fatal("want error for missing file")
	}
	if err := WriteFile(filepath.Join(dir, "no", "such", "dir.csv"), orig); err == nil {
		t.Fatal("want error for unwritable path")
	}
	_ = os.Remove(path)
}

func TestZeroRowRelation(t *testing.T) {
	csv := "a,b\n"
	r, _, err := ReadWithReport(strings.NewReader(csv), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 0 {
		t.Fatalf("rows = %d", r.NumRows())
	}
	var buf bytes.Buffer
	if err := Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "a,b") {
		t.Fatalf("header = %q", buf.String())
	}
}

// plainDecimalCells are signed, exponent, hex, underscore, overflowing and
// special-value cells around scan 1's shortcut.
var plainDecimalCells = []string{
	"0", "-0", "+3", "-12.5", "007.250", "1.", ".5", "-", "+.", "1.2.3", " 1", "1 ",
	"1e5", "-2E-3", "0x1p-2", "0X1P+3", "1_000", "1__0", "inf", "-Inf", "NaN", "infinity",
	strings.Repeat("9", 299), strings.Repeat("9", 299) + ".5", strings.Repeat("9", 300),
	strings.Repeat("9", 400), "1e400", "-1e400", "1e-400", "0." + strings.Repeat("0", 400) + "1",
}

// TestPlainDecimalKeepsKinds: a column of any one of plainDecimalCells is
// inferred numeric exactly when strconv.ParseFloat accepts the cell, as
// before scan 1 had a shortcut.
func TestPlainDecimalKeepsKinds(t *testing.T) {
	for _, cell := range plainDecimalCells {
		r, _, err := ReadWithReport(strings.NewReader("a,b\n\""+cell+"\",x\n"), Options{OnRowError: RowErrorSkip})
		if err != nil {
			t.Fatalf("%q: %v", cell, err)
		}
		want := relation.Discrete
		if _, err := strconv.ParseFloat(cell, 64); err == nil {
			want = relation.Numeric
		}
		if got := r.Schema().Columns()[0].Kind; got != want {
			t.Errorf("%q: kind %v, want %v", cell, got, want)
		}
	}
}
