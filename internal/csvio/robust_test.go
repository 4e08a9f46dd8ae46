package csvio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
)

// TestReadMalformedInputs is the table of corrupted/truncated inputs the
// loader must reject (under the default fail policy) with typed errors.
func TestReadMalformedInputs(t *testing.T) {
	cases := []struct {
		name string
		src  string
		opts Options
	}{
		{"empty file", "", Options{}},
		{"ragged short row", "a,b\n1,2\n3\n", Options{}},
		{"ragged long row", "a,b\n1,2\n3,4,5\n", Options{}},
		{"duplicate header", "a,a\n1,2\n", Options{}},
		{"empty header name", "a,,c\n1,2,3\n", Options{}},
		{"bare quote", "a,b\n\"x,y\nz,w\n", Options{}},
		{"forced numeric garbage", "a\nxyz\n",
			Options{ForceKinds: map[string]relation.Kind{"a": relation.Numeric}}},
		{"explicit Inf", "a\n1\n+Inf\n", Options{}},
		{"explicit negative Inf", "a\n-Inf\n2\n", Options{}},
		{"overflowing float", "a\n1e309\n",
			Options{ForceKinds: map[string]relation.Kind{"a": relation.Numeric}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := ReadWithReport(strings.NewReader(c.src), c.opts)
			if err == nil {
				t.Fatalf("Read(%q) should fail", c.src)
			}
			if !errors.Is(err, faults.ErrBadInput) {
				t.Fatalf("Read(%q) error not typed ErrBadInput: %v", c.src, err)
			}
		})
	}
}

// TestReadAcceptedOddities is the table of inputs that look suspicious but
// must load: BOM, NaN sentinel, blank lines, quoted commas.
func TestReadAcceptedOddities(t *testing.T) {
	cases := []struct {
		name string
		src  string
		rows int
	}{
		{"utf8 bom", "\xEF\xBB\xBFa,b\n1,x\n", 1},
		{"bom only header", "\xEF\xBB\xBFa\n", 0},
		{"nan sentinel", "a\n1\nNaN\n", 2},
		{"blank lines skipped", "a,b\n1,x\n\n2,y\n", 2},
		{"quoted comma", "a,b\n\"x,y\",1\n", 1},
		{"crlf", "a,b\r\n1,x\r\n", 1},
		{"header only", "a,b\n", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, _, err := ReadWithReport(strings.NewReader(c.src), Options{})
			if err != nil {
				t.Fatalf("Read(%q): %v", c.src, err)
			}
			if r.NumRows() != c.rows {
				t.Fatalf("Read(%q) rows = %d, want %d", c.src, r.NumRows(), c.rows)
			}
		})
	}
}

func TestBOMDoesNotPolluteHeaderName(t *testing.T) {
	r, _, err := ReadWithReport(strings.NewReader("\xEF\xBB\xBFmajor\nME\n"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Schema().Has("major") {
		t.Fatalf("BOM leaked into header: columns = %v", r.Schema().Columns())
	}
}

func TestSkipPolicyCountsAndKeeps(t *testing.T) {
	src := "a,b\n1,x\nbad\n2,y\n3,z,EXTRA\n4,w\n"
	rel, rep, err := ReadWithReport(strings.NewReader(src), Options{OnRowError: RowErrorSkip})
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 3 || rep.Rows != 3 {
		t.Fatalf("kept %d rows, want 3 (report %+v)", rel.NumRows(), rep)
	}
	if rep.Skipped != 2 || rep.Quarantined != 0 {
		t.Fatalf("report = %+v, want 2 skipped", rep)
	}
	if len(rep.BadRows) != 2 || rep.BadRows[0].Row != 3 || rep.BadRows[1].Row != 5 {
		t.Fatalf("bad rows = %+v", rep.BadRows)
	}
	if rep.Clean() {
		t.Fatal("report with skips must not be Clean")
	}
}

func TestSkipPolicyKeepsInferenceStable(t *testing.T) {
	// The malformed row's "xyz" must not flip column b to discrete once the
	// row is skipped.
	src := "a,b\n1,2\nbad-row-only-one-field\n3,4\n"
	rel, rep, err := ReadWithReport(strings.NewReader(src), Options{OnRowError: RowErrorSkip})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if _, err := rel.Numeric("b"); err != nil {
		t.Fatal("skipped row affected kind inference")
	}
}

func TestQuarantinePolicyWritesSidecar(t *testing.T) {
	src := "a,b\n1,x\nonly-one\n2,y\n"
	var sidecar bytes.Buffer
	rel, rep, err := ReadWithReport(strings.NewReader(src), Options{
		OnRowError: RowErrorQuarantine,
		Quarantine: &sidecar,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 2 || rep.Quarantined != 1 || rep.Skipped != 0 {
		t.Fatalf("rows=%d report=%+v", rel.NumRows(), rep)
	}
	line := sidecar.String()
	if !strings.HasPrefix(line, "3,") || !strings.Contains(line, "only-one") {
		t.Fatalf("sidecar = %q, want row number 3 and original fields", line)
	}
}

func TestQuarantinePolicyNeedsWriter(t *testing.T) {
	_, _, err := ReadWithReport(strings.NewReader("a\n1\n"), Options{OnRowError: RowErrorQuarantine})
	if !errors.Is(err, faults.ErrUsage) {
		t.Fatalf("want ErrUsage for missing quarantine writer, got %v", err)
	}
}

func TestStreamFailureNotSkippable(t *testing.T) {
	// An I/O error mid-stream is not a row error: even the skip policy must
	// abort, otherwise a truncated transfer silently halves the dataset. The
	// fault lands in scan 1, or in scan 2 after scan 1 read the whole input.
	src := "a,b\n" + strings.Repeat("1,x\n", 100)
	for _, failAt := range []int64{50, int64(len(src)) + 50} {
		fr := &faults.FailingReader{R: strings.NewReader(src), FailAt: failAt}
		_, _, err := ReadWithReport(fr, Options{OnRowError: RowErrorSkip})
		if err == nil {
			t.Fatalf("failure at byte %d should abort the load", failAt)
		}
		if !errors.Is(err, faults.ErrBadInput) || !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("failure at byte %d: want typed ErrBadInput carrying the injected cause, got %v", failAt, err)
		}
	}
}

// swapOnSeek reads the next of its texts each time it is rewound: an input
// rewritten between the two scans of a load.
type swapOnSeek struct {
	*strings.Reader
	texts []string
}

func (s *swapOnSeek) Seek(int64, int) (int64, error) {
	s.Reader, s.texts = strings.NewReader(s.texts[0]), s.texts[1:]
	return 0, nil
}

func TestInputChangedBetweenScans(t *testing.T) {
	// A column added after scan 1 resolved the kinds fails typed bad input
	// instead of decoding cells scan 1 never saw.
	in := &swapOnSeek{texts: []string{"a,b\n1,2\n", "a,b,c\n1,2,3\n"}}
	_, _, err := ReadWithReport(in, Options{})
	if !errors.Is(err, faults.ErrBadInput) || !strings.Contains(err.Error(), "changed between scans") {
		t.Fatalf("want ErrBadInput naming a changed input, got %v", err)
	}
}

func TestScansStartAtOffsetZero(t *testing.T) {
	// A reader left mid-input loads as a fresh one: both scans rewind.
	src := "a,b\n1,x\n2,y\n"
	want, _, err := ReadWithReport(strings.NewReader(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := strings.NewReader(src)
	r.Seek(6, io.SeekStart)
	got, _, err := ReadWithReport(r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("a load from offset 6 differs from one from offset 0")
	}
}

func TestUnseekableInputFailsFirst(t *testing.T) {
	// A pipe fails typed bad input before the load reads a byte of it.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	pw.WriteString("a,b\n1,x\n")
	pw.Close()
	if _, _, err := ReadWithReport(pr, Options{}); !errors.Is(err, faults.ErrBadInput) {
		t.Fatalf("pipe: want ErrBadInput, got %v", err)
	}
	if rest, _ := io.ReadAll(pr); string(rest) != "a,b\n1,x\n" {
		t.Errorf("the load consumed the pipe: %q left", rest)
	}
}

func TestCleanTruncationDropsLastRow(t *testing.T) {
	// A clean EOF mid-row makes the final row ragged; the fail policy turns
	// that into a typed error instead of a silently shorter relation.
	src := "a,b\n1,x\n2,y\n3,z\n"
	tr := &faults.TruncatingReader{R: strings.NewReader(src), Limit: int64(len(src) - 3)}
	_, _, err := ReadWithReport(tr, Options{})
	if !errors.Is(err, faults.ErrBadInput) {
		t.Fatalf("want ErrBadInput for truncated input, got %v", err)
	}
}

func TestParseRowErrorPolicy(t *testing.T) {
	for s, want := range map[string]RowErrorPolicy{
		"":           RowErrorFail,
		"fail":       RowErrorFail,
		"skip":       RowErrorSkip,
		"quarantine": RowErrorQuarantine,
	} {
		got, err := ParseRowErrorPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseRowErrorPolicy(%q) = %v, %v", s, got, err)
		}
		if s != "" && got.String() != s {
			t.Fatalf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseRowErrorPolicy("explode"); !errors.Is(err, faults.ErrUsage) {
		t.Fatalf("want ErrUsage, got %v", err)
	}
}

func TestReportCapsBadRowDetail(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("a,b\n")
	for i := 0; i < maxReportedRows+50; i++ {
		sb.WriteString("ragged\n")
	}
	_, rep, err := ReadWithReport(strings.NewReader(sb.String()), Options{OnRowError: RowErrorSkip})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != maxReportedRows+50 {
		t.Fatalf("skipped = %d", rep.Skipped)
	}
	if len(rep.BadRows) != maxReportedRows {
		t.Fatalf("detail not capped: %d entries", len(rep.BadRows))
	}
}
