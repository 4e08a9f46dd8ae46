package colstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
)

// testRelation builds a relation exercising the format's edge cases: NaN,
// infinities, signed zero, NULLs, empty strings, unicode, and a
// single-valued column.
func testRelation(t testing.TB) *relation.Relation {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "amount", Kind: relation.Numeric},
		relation.Column{Name: "category", Kind: relation.Discrete},
		relation.Column{Name: "note", Kind: relation.Discrete},
		relation.Column{Name: "flag", Kind: relation.Discrete},
		relation.Column{Name: "score", Kind: relation.Numeric},
	)
	rel, err := relation.FromColumns(schema,
		map[string][]float64{
			"amount": {1.5, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e308},
			"score":  {-3, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6},
		},
		map[string][]string{
			"category": {"b", "a", relation.Null, "ü–🚀", "", "a", "b"},
			"note":     {"x", "x", "x", "x", "x", "x", "x"},
			"flag":     {"yes", "no", "yes", "no", "yes", "no", "yes"},
		})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestRoundTrip(t *testing.T) {
	rel := testRelation(t)
	var buf bytes.Buffer
	n, err := Write(&buf, rel)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Write reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Equal(got) {
		t.Fatalf("round trip changed the relation:\n  in  %v\n  out %v", rel, got)
	}
	// The serialized dictionary encoding must be adopted verbatim: the
	// decoded relation's index matches one built from scratch.
	for _, name := range rel.Schema().DiscreteNames() {
		want, err := rel.DiscreteIndex(name)
		if err != nil {
			t.Fatal(err)
		}
		gotIx, err := got.DiscreteIndex(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Domain, gotIx.Domain) || !reflect.DeepEqual(want.Codes, gotIx.Codes) {
			t.Fatalf("column %q: decoded index differs from rebuilt index", name)
		}
		if err := got.CheckIndex(name); err != nil {
			t.Fatalf("column %q: adopted index inconsistent: %v", name, err)
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "x", Kind: relation.Numeric},
		relation.Column{Name: "d", Kind: relation.Discrete},
	)
	rel, err := relation.FromColumns(schema,
		map[string][]float64{"x": {}}, map[string][]string{"d": {}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, rel); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 || got.Schema().Len() != 2 {
		t.Fatalf("empty round trip: got %v", got)
	}
}

func TestWriteDeterministic(t *testing.T) {
	rel := testRelation(t)
	var a, b bytes.Buffer
	if _, err := Write(&a, rel); err != nil {
		t.Fatal(err)
	}
	if _, err := Write(&b, rel.Clone()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("packing the same relation twice produced different bytes")
	}
}

func TestOpenView(t *testing.T) {
	rel := testRelation(t)
	path := filepath.Join(t.TempDir(), "view.pcol")
	if _, err := WriteFile(path, rel); err != nil {
		t.Fatal(err)
	}
	v, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" && !v.Mapped {
		t.Error("expected a memory-mapped view on linux")
	}
	if !rel.Equal(v.Relation()) {
		t.Fatal("mapped view differs from source relation")
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestOpenMissing(t *testing.T) {
	_, err := Open(filepath.Join(t.TempDir(), "nope.pcol"))
	if err == nil {
		t.Fatal("expected an error")
	}
	if !errors.Is(err, faults.ErrBadInput) {
		t.Fatalf("kind = %v, want ErrBadInput", faults.Kind(err))
	}
}

// TestDecodeCorrupt flips each byte of a valid image in turn and asserts the
// reader either still succeeds (padding bytes are not covered by any CRC) or
// fails with a typed ErrBadInput — never a panic and never a wrong-but-valid
// relation for a header/directory/data corruption the CRCs cover.
func TestDecodeCorrupt(t *testing.T) {
	rel := testRelation(t)
	var buf bytes.Buffer
	if _, err := Write(&buf, rel); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	for i := range img {
		cp := make([]byte, len(img))
		copy(cp, img)
		cp[i] ^= 0xff
		got, err := func() (r *relation.Relation, err error) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("byte %d: Decode panicked: %v", i, p)
				}
			}()
			return Decode(cp)
		}()
		if err != nil {
			if !errors.Is(err, faults.ErrBadInput) {
				t.Fatalf("byte %d: kind = %v, want ErrBadInput (%v)", i, faults.Kind(err), err)
			}
			continue
		}
		// A successful decode after a flip is only legitimate for padding
		// bytes, which decode to the identical relation.
		if !rel.Equal(got) {
			t.Fatalf("byte %d: corrupted image decoded to a different relation", i)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	rel := testRelation(t)
	var buf bytes.Buffer
	if _, err := Write(&buf, rel); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	for n := 0; n < len(img); n++ {
		if _, err := Decode(img[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		} else if !errors.Is(err, faults.ErrBadInput) {
			t.Fatalf("truncation to %d: kind = %v, want ErrBadInput", n, faults.Kind(err))
		}
	}
}

// packBig packs a 100k-row relation with three discrete columns and
// returns the file's path.
func packBig(t *testing.T) string {
	t.Helper()
	const rows = 100_000
	schema := relation.MustSchema(
		relation.Column{Name: "x", Kind: relation.Numeric},
		relation.Column{Name: "a", Kind: relation.Discrete},
		relation.Column{Name: "b", Kind: relation.Discrete},
		relation.Column{Name: "c", Kind: relation.Discrete},
	)
	x := make([]float64, rows)
	a, b, c := make([]string, rows), make([]string, rows), make([]string, rows)
	for i := range x {
		x[i] = float64(i % 97)
		a[i] = fmt.Sprintf("section-%d", i%1000)
		b[i] = fmt.Sprintf("instructor-%d", i*7%50)
		c[i] = []string{"yes", "no", relation.Null}[i%3]
	}
	rel, err := relation.FromColumns(schema, map[string][]float64{"x": x},
		map[string][]string{"a": a, "b": b, "c": c})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "big.pcol")
	if _, err := WriteFile(path, rel); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenBuildsNoStringColumns holds the load path to what a served view
// needs: opening a 100k-row view and reading every discrete column's index
// and domain allocates less than one byte per row, so no per-row string
// column (16 B/row) is built.
func TestOpenBuildsNoStringColumns(t *testing.T) {
	path := packBig(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if !v.Mapped {
		t.Skip("the view is read into the heap on this platform")
	}
	rel := v.Relation()
	for _, name := range rel.Schema().DiscreteNames() {
		if _, err := rel.DiscreteIndex(name); err != nil {
			t.Fatal(err)
		}
		if _, err := rel.Domain(name); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(rel.NumRows()) {
		t.Fatalf("open + index reads allocated %d B for %d rows, want < 1 B/row", got, rel.NumRows())
	}
}

// TestOpenedViewConcurrentFirstReads makes the first Discrete and
// DiscreteIndex calls on one opened view from several goroutines at once;
// run under -race it checks that building a coded column's strings on
// demand is guarded.
func TestOpenedViewConcurrentFirstReads(t *testing.T) {
	v, err := Open(packBig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	rel := v.Relation()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, name := range rel.Schema().DiscreteNames() {
				if g%2 == 0 {
					col, err := rel.Discrete(name)
					if err != nil || len(col) != rel.NumRows() {
						t.Errorf("Discrete(%q): %d values, %v", name, len(col), err)
					}
				} else if err := rel.CheckIndex(name); err != nil {
					t.Error(err)
				}
				if _, err := rel.DiscreteIndex(name); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	for _, name := range rel.Schema().DiscreteNames() {
		if err := rel.CheckIndex(name); err != nil {
			t.Fatal(err)
		}
	}
}
