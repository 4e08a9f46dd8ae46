package relation

import (
	"io"
	"math"
	"testing"
)

func iterTestRel(t *testing.T, rows int) *Relation {
	t.Helper()
	schema := MustSchema(Column{Name: "d", Kind: Discrete}, Column{Name: "x", Kind: Numeric})
	b := NewBuilder(schema)
	for i := 0; i < rows; i++ {
		b.Append(map[string]float64{"x": float64(i)}, map[string]string{"d": string(rune('a' + i%3))})
	}
	rel, err := b.Relation()
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestWindowSharesBacking(t *testing.T) {
	rel := iterTestRel(t, 10)
	w, err := rel.Window(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumRows() != 4 {
		t.Fatalf("window rows = %d, want 4", w.NumRows())
	}
	if got := w.MustNumeric("x")[0]; got != 3 {
		t.Fatalf("window x[0] = %v, want 3", got)
	}
	// The window's discrete column is its own: a write installs a column
	// in the window and leaves the parent's as it was.
	if err := w.SetDiscrete("d", []string{"Z", "Z", "Z", "Z"}); err != nil {
		t.Fatal(err)
	}
	if got := rel.MustDiscrete("d")[3]; got != "a" {
		t.Fatalf("window write reached the parent: d[3] = %q", got)
	}
	// Rows 3..6 hold a, b, c, a: every parent value, so the window shares
	// the parent's immutable domain.
	pix, _ := rel.DiscreteIndex("d")
	w, _ = rel.Window(3, 7)
	if wix, _ := w.DiscreteIndex("d"); &wix.Domain[0] != &pix.Domain[0] {
		t.Error("a window holding every value should share the parent's domain")
	}
	// Capacity-clamped: appending to a window column cannot clobber the
	// parent's next row.
	col := w.MustNumeric("x")
	if cap(col) != len(col) {
		t.Fatalf("window cap %d != len %d", cap(col), len(col))
	}
}

func TestWindowBounds(t *testing.T) {
	rel := iterTestRel(t, 5)
	for _, bad := range [][2]int{{-1, 2}, {3, 2}, {0, 6}} {
		if _, err := rel.Window(bad[0], bad[1]); err == nil {
			t.Errorf("Window(%d,%d) accepted", bad[0], bad[1])
		}
	}
	if w, err := rel.Window(5, 5); err != nil || w.NumRows() != 0 {
		t.Fatalf("empty tail window: %v, rows %d", err, w.NumRows())
	}
}

func TestSliceIteratorCoversAllRows(t *testing.T) {
	rel := iterTestRel(t, 10)
	it := NewSliceIterator(rel, 4)
	if it.Schema().Len() != 2 {
		t.Fatal("schema lost")
	}
	var sizes []int
	total := 0.0
	for {
		w, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, w.NumRows())
		for _, v := range w.MustNumeric("x") {
			total += v
		}
	}
	if len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 2 {
		t.Fatalf("window sizes = %v, want [4 4 2]", sizes)
	}
	if want := 45.0; math.Abs(total-want) > 0 {
		t.Fatalf("sum over windows = %v, want %v", total, want)
	}
	if _, err := it.Next(); err != io.EOF {
		t.Fatalf("after EOF: %v", err)
	}
}

func TestSliceIteratorEmptyRelation(t *testing.T) {
	rel := iterTestRel(t, 0)
	it := NewSliceIterator(rel, 0) // default window
	if _, err := it.Next(); err != io.EOF {
		t.Fatalf("empty relation: %v, want io.EOF", err)
	}
}
