package cleaning

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"privateclean/internal/csvio"
	"privateclean/internal/provenance"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

// fuzzRel builds a small random relation: two discrete attributes over a
// four-value domain plus NULL, and one numeric column with missing cells.
func fuzzRel(t *testing.T, seed int64, n int) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pick := func() string {
		if rng.Intn(5) == 0 {
			return relation.Null
		}
		return fmt.Sprintf("x%d", rng.Intn(4))
	}
	a, b, s := make([]string, n), make([]string, n), make([]float64, n)
	for i := range a {
		a[i], b[i], s[i] = pick(), pick(), float64(rng.Intn(9))
		if rng.Intn(6) == 0 {
			s[i] = math.NaN()
		}
	}
	schema := relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.Discrete},
		relation.Column{Name: "b", Kind: relation.Discrete},
		relation.Column{Name: "s", Kind: relation.Numeric},
	)
	r, err := relation.FromColumns(schema, map[string][]float64{"s": s}, map[string][]string{"a": a, "b": b})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// fuzzOps decodes up to five ops from prog, one byte each: the byte modulo
// 15 picks the op, its high bits the op's parameters. Extracts chain: each one
// reads the attribute the previous one created.
func fuzzOps(prog []byte) (ops []Op) {
	if len(prog) == 0 {
		prog = []byte{0}
	}
	if len(prog) > 5 {
		prog = prog[:5]
	}
	attrs := []string{"a", "b"}
	last := "a"
	for i, c := range prog {
		attr := attrs[int(c>>4)%2]
		v := fmt.Sprintf("x%d", c>>5)
		switch c % 15 {
		case 0:
			ops = append(ops, FindReplace{Attr: attr, From: v, To: "x0"})
		case 1:
			ops = append(ops, DictionaryMerge{Attr: attr, Mapping: map[string]string{v: "m", relation.Null: "x1"}})
		case 2:
			ops = append(ops, NullifyInvalid{Attr: attr, Valid: func(s string) bool { return s != v }})
		case 3:
			ops = append(ops, RegexReplace{Attr: attr, Pattern: "[0-1]", Replacement: "y"})
		case 4:
			ops = append(ops, Canonicalize{Attr: attr, Lowercase: c&16 != 0})
		case 5:
			ops = append(ops, TrimPrefixSuffix{Attr: attr, Prefix: "x"})
		case 6:
			ops = append(ops, Transform{Attr: attr, F: func(s string) string { return s + "!" }})
		case 7:
			next := fmt.Sprintf("e%d", i)
			ops = append(ops, Extract{SrcAttr: last, NewAttr: next, F: func(s string) string {
				return strings.TrimRight(s, "0123")
			}})
			last = next
		case 8:
			// Forks: rows sharing an a-value diverge on the second
			// attribute, which may repeat a (an error).
			ops = append(ops, TransformRows{Attrs: []string{"a", attr}, F: func(vals []string) []string {
				if vals[1] == v {
					return []string{"f", vals[1] + "?"}
				}
				return vals
			}})
		case 9:
			// Fails on the first row whose b is v.
			ops = append(ops, TransformRows{Attrs: []string{"b"}, F: func(vals []string) []string {
				if vals[0] == v {
					return nil
				}
				return []string{vals[0] + "."}
			}})
		case 10:
			// A missing or numeric attribute: an error either way.
			ops = append(ops, FindReplace{Attr: []string{"zz", "s"}[int(c>>4)%2], From: v, To: "y"})
		case 11:
			ops = append(ops, Merge{Attr: attr, F: func(s string, dom []string) string { return dom[0] }})
		case 12:
			ops = append(ops, FDRepair{LHS: []string{"b"}, RHS: "a"})
		case 13:
			ops = append(ops, FDImpute{LHS: []string{"a"}, RHS: "b"})
		case 14:
			ops = append(ops, MDRepair{Attr: attr, MaxDist: 1})
		}
	}
	return ops
}

// FuzzCleanModes is the differential check over the two cleaning entry
// points: Apply over the resident relation and StreamApply over windows of
// it must write the same CSV bytes and the same provenance JSON, or fail with
// the same fault class. A global op (Merge, FDRepair, FDImpute, MDRepair) is
// diffed like any other: its summary, folded window by window, must equal
// the one Apply folds from the relation whole.
func FuzzCleanModes(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3), []byte{0, 7, 8})
	f.Add(int64(2), uint8(20), uint8(0), []byte{8, 0x18, 7, 0x17, 6})
	f.Add(int64(3), uint8(9), uint8(9), []byte{1, 2, 0x13, 4, 5})
	f.Add(int64(4), uint8(15), uint8(2), []byte{9, 0x29})
	f.Add(int64(5), uint8(6), uint8(1), []byte{12, 0})
	f.Add(int64(6), uint8(0), uint8(0), []byte{7, 10})
	f.Fuzz(func(t *testing.T, seed int64, rows, window uint8, prog []byte) {
		n := int(rows % 24)
		r := fuzzRel(t, seed, n)
		meta := metaFor(t, r)
		ops := fuzzOps(prog)

		resident := r.Clone()
		memCtx := &Context{Rel: resident, Prov: provenance.NewStore(), Meta: meta}
		memErr := Apply(memCtx, ops...)

		var got bytes.Buffer
		strCtx := &Context{Prov: provenance.NewStore(), Meta: meta}
		_, strErr := StreamApply(strCtx, windows(r.Clone(), 1+int(window)%(n+1)), &got, ops...)
		if memCode, strCode := telemetry.FaultCode(memErr), telemetry.FaultCode(strErr); memCode != strCode {
			t.Fatalf("Apply fault %q (%v), StreamApply fault %q (%v)", memCode, memErr, strCode, strErr)
		}
		if memErr != nil {
			return
		}
		var want bytes.Buffer
		if err := csvio.Write(&want, resident); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("CSV differs:\nApply:\n%s\nStreamApply:\n%s", want.String(), got.String())
		}
		if mem, str := provJSON(t, memCtx.Prov), provJSON(t, strCtx.Prov); mem != str {
			t.Fatalf("provenance differs:\nApply:       %s\nStreamApply: %s", mem, str)
		}
	})
}
