// Package csvio loads and stores relations as CSV files with a header row.
// It is the I/O substrate for the CLI and the examples.
//
// On load, column kinds are inferred: a column whose every non-empty cell
// parses as a float becomes numeric, everything else discrete. Callers can
// force kinds per column. One row decoder then turns each kept record into
// columns, for the in-memory load (ReadWithReport) and the streaming one
// (ProfileFile, ChunkIterator) alike: numeric cells become floats and
// discrete ones dictionary codes, the relation's own encoding, and empty
// cells become NaN (numeric) or relation.Null (discrete).
//
// Loading is hardened for provider-side use: a UTF-8 BOM is stripped,
// duplicate and empty headers are rejected with typed errors, and malformed
// rows (wrong arity, unparsable or non-finite forced-numeric cells, CSV
// quoting errors) are handled under a configurable per-row policy — fail the
// whole load, skip and count, or quarantine the raw row to a sidecar writer.
// Writes go through temp-file+atomic-rename so a crash never leaves a
// half-written artifact.
package csvio

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"privateclean/internal/atomicio"
	"privateclean/internal/faults"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

// RowErrorPolicy selects what happens to a malformed data row.
type RowErrorPolicy int

const (
	// RowErrorFail aborts the load with a typed faults.ErrBadInput. The
	// default: a privacy mechanism should not silently drop records.
	RowErrorFail RowErrorPolicy = iota
	// RowErrorSkip drops the malformed row and counts it in the Report.
	RowErrorSkip
	// RowErrorQuarantine drops the row, counts it, and writes it with its
	// position and reason to Options.Quarantine.
	RowErrorQuarantine
)

// String renders the policy as its CLI flag value.
func (p RowErrorPolicy) String() string {
	switch p {
	case RowErrorFail:
		return "fail"
	case RowErrorSkip:
		return "skip"
	case RowErrorQuarantine:
		return "quarantine"
	}
	return fmt.Sprintf("RowErrorPolicy(%d)", int(p))
}

// ParseRowErrorPolicy parses a CLI flag value into a policy.
func ParseRowErrorPolicy(s string) (RowErrorPolicy, error) {
	switch s {
	case "fail", "":
		return RowErrorFail, nil
	case "skip":
		return RowErrorSkip, nil
	case "quarantine":
		return RowErrorQuarantine, nil
	}
	return 0, faults.Errorf(faults.ErrUsage, "csvio: unknown row-error policy %q (want fail, skip, or quarantine)", s)
}

// Options controls CSV loading.
type Options struct {
	// ForceKinds overrides the inferred kind for the named columns.
	ForceKinds map[string]relation.Kind
	// OnRowError selects the per-row error policy (default RowErrorFail).
	OnRowError RowErrorPolicy
	// Quarantine receives malformed rows under RowErrorQuarantine, as CSV
	// records of the form (physical row number, reason, original fields...).
	// Required when OnRowError is RowErrorQuarantine.
	Quarantine io.Writer
	// Tel supplies telemetry sinks for load accounting; nil falls back to
	// telemetry.Default(). Only counts, reason codes, and header names reach
	// telemetry — never row contents.
	Tel *telemetry.Set
}

// RowError describes one malformed data row.
type RowError struct {
	// Row is the 1-based physical row number in the source (header = 1).
	Row int
	// Reason says what was wrong with it.
	Reason string
}

// maxReportedRows caps the per-row detail kept in a Report so a pathological
// input cannot balloon memory; the counters always cover every row.
const maxReportedRows = 100

// Report summarizes a load: how many rows were kept and what happened to the
// ones that were not.
type Report struct {
	// Rows is the number of data rows kept in the relation.
	Rows int
	// Skipped counts rows dropped under RowErrorSkip.
	Skipped int
	// Quarantined counts rows diverted under RowErrorQuarantine.
	Quarantined int
	// BadRows details the first maxReportedRows malformed rows.
	BadRows []RowError
}

// Clean reports whether every source row made it into the relation.
func (rep *Report) Clean() bool { return rep.Skipped == 0 && rep.Quarantined == 0 }

// kindInference infers column kinds one kept row at a time: a column is
// numeric unless a non-empty cell fails strconv.ParseFloat, discrete when it
// has no non-empty cell at all, and a kind forced in Options wins.
type kindInference struct {
	header  []string
	force   map[string]relation.Kind
	numeric []bool // inferred, and no non-empty cell has failed to parse yet
	seen    []bool // some non-empty cell was seen
}

func newKindInference(header []string, force map[string]relation.Kind) *kindInference {
	k := &kindInference{header: header, force: force, numeric: make([]bool, len(header)), seen: make([]bool, len(header))}
	for c, name := range header {
		_, forced := force[name]
		k.numeric[c] = !forced
	}
	return k
}

// add takes one kept row's evidence.
func (k *kindInference) add(rec []string) {
	for c, cell := range rec {
		if !k.numeric[c] || cell == "" {
			continue
		}
		k.seen[c] = true
		if _, err := strconv.ParseFloat(cell, 64); err != nil {
			k.numeric[c] = false
		}
	}
}

// columns resolves every column's kind from the evidence so far.
func (k *kindInference) columns() []relation.Column {
	cols := make([]relation.Column, len(k.header))
	for c, name := range k.header {
		cols[c] = relation.Column{Name: name, Kind: relation.Discrete}
		if kind, ok := k.force[name]; ok {
			cols[c].Kind = kind
		} else if k.numeric[c] && k.seen[c] {
			cols[c].Kind = relation.Numeric
		}
	}
	return cols
}

// newSchema builds the schema of resolved columns.
func newSchema(cols []relation.Column) (relation.Schema, error) {
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return relation.Schema{}, faults.Wrap(faults.ErrBadInput, fmt.Errorf("csvio: %w", err))
	}
	return schema, nil
}

// ReadWithReport loads a relation from CSV data with a header row, with a
// per-row accounting of skipped and quarantined rows. The report is non-nil
// whenever the error is nil.
func ReadWithReport(r io.Reader, opts Options) (*relation.Relation, *Report, error) {
	if opts.OnRowError == RowErrorQuarantine && opts.Quarantine == nil {
		return nil, nil, faults.Errorf(faults.ErrUsage, "csvio: quarantine policy needs a quarantine writer")
	}
	src, err := newSource(r)
	if err != nil {
		return nil, nil, err
	}
	header := src.header
	pol := newRowPolicy(opts, header)

	var rows [][]string
	var rowNums []int // physical row number per kept row, for later parse errors
	infer := newKindInference(header, opts.ForceKinds)
	for {
		rec, code, reason, err := src.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if code != "" {
			if rerr := pol.reject(src.physical, rec, code, reason); rerr != nil {
				return nil, nil, rerr
			}
			continue
		}
		rows = append(rows, rec)
		rowNums = append(rowNums, src.physical)
		infer.add(rec)
	}
	cols := infer.columns()

	dec := newRowDecoder(cols, len(rows))
	for i, row := range rows {
		if bad := dec.decode(row); bad != "" {
			if rerr := pol.reject(rowNums[i], row, "bad_numeric", bad); rerr != nil {
				return nil, nil, rerr
			}
		}
	}
	rep, err := pol.finish(dec.rows)
	if err != nil {
		return nil, nil, err
	}
	schema, err := newSchema(cols)
	if err != nil {
		return nil, nil, err
	}
	rel, err := dec.build(schema)
	if err != nil {
		return nil, nil, faults.Wrap(faults.ErrInternal, fmt.Errorf("csvio: %w", err))
	}
	return rel, rep, nil
}

// source is one sequential pass over CSV data: BOM stripped, header read
// and validated, data rows classified for the row policy.
type source struct {
	f      *os.File // nil unless opened by openSource
	cr     *csv.Reader
	header []string
	// physical is the 1-based physical row number of the last record read
	// (the header is row 1).
	physical int
}

// newSource strips a UTF-8 BOM from r, then reads and validates the header
// row: a missing, unreadable, empty or duplicate name is a typed
// faults.ErrBadInput.
func newSource(r io.Reader) (*source, error) {
	br := bufio.NewReader(r)
	if head, err := br.Peek(3); err == nil && bytes.Equal(head, []byte{0xEF, 0xBB, 0xBF}) {
		br.Discard(3) // UTF-8 BOM
	}
	cr := csv.NewReader(br)
	cr.TrimLeadingSpace = true
	cr.FieldsPerRecord = -1 // arity enforced by next, under the row policy

	header, err := cr.Read()
	if err == io.EOF {
		return nil, faults.Errorf(faults.ErrBadInput, "csvio: missing header row")
	}
	if err != nil {
		return nil, faults.Wrap(faults.ErrBadInput, fmt.Errorf("csvio: header: %w", err))
	}
	seen := make(map[string]bool, len(header))
	for i, name := range header {
		if name == "" {
			return nil, faults.Errorf(faults.ErrBadInput, "csvio: empty name for header column %d", i+1)
		}
		if seen[name] {
			return nil, faults.Errorf(faults.ErrBadInput, "csvio: duplicate header column %q", name)
		}
		seen[name] = true
	}
	return &source{cr: cr, header: header, physical: 1}, nil
}

// next reads one data row. code is "" for a row of the header's arity, else
// the malformed-row reason class ("syntax" or "arity") with reason set; an
// arity row keeps its fields for the quarantine sidecar. It returns io.EOF
// after the last row, and any other error is a stream-level failure, which
// no policy may skip.
func (s *source) next() (fields []string, code, reason string, err error) {
	rec, err := s.cr.Read()
	if err == io.EOF {
		return nil, "", "", io.EOF
	}
	s.physical++
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			return nil, "syntax", fmt.Sprintf("csv syntax: %v", pe.Err), nil
		}
		return nil, "", "", faults.Wrap(faults.ErrBadInput, fmt.Errorf("csvio: row %d: %w", s.physical, err))
	}
	if len(rec) != len(s.header) {
		return rec, "arity", fmt.Sprintf("has %d fields, header has %d", len(rec), len(s.header)), nil
	}
	return rec, "", "", nil
}

// parseNumeric parses one non-empty cell of numeric column name. bad is the
// row policy's reason text when the cell does not parse or is an explicit
// ±Inf (poison for every downstream aggregate); "NaN" stays accepted as the
// missing-value sentinel the writer emits.
func parseNumeric(name, cell string) (v float64, bad string) {
	v, err := strconv.ParseFloat(cell, 64)
	switch {
	case err != nil:
		return 0, fmt.Sprintf("column %q: %v", name, err)
	case math.IsInf(v, 0):
		return 0, fmt.Sprintf("column %q: non-finite value %q", name, cell)
	}
	return v, ""
}

// rowPolicy applies Options.OnRowError to malformed rows and builds the
// load's Report. BadRows lists arity/syntax rows before bad_numeric rows —
// the order ReadWithReport's two passes find them in — whatever order the
// rows are rejected in.
type rowPolicy struct {
	opts                Options
	tel                 *telemetry.Set
	rep                 Report
	quarantine          *csv.Writer
	structural, numeric []RowError
}

func newRowPolicy(opts Options, header []string) *rowPolicy {
	tel := opts.Tel
	if tel == nil {
		tel = telemetry.Default()
	}
	// Header names are schema metadata, not data: telemetry may show them.
	tel.Redact.Allow(header...)
	pol := &rowPolicy{opts: opts, tel: tel}
	if opts.Quarantine != nil {
		pol.quarantine = csv.NewWriter(opts.Quarantine)
	}
	return pol
}

// reject applies the policy to one malformed row; code is the
// vocabulary-safe reason class (arity, syntax, bad_numeric) telemetry
// carries in place of the full reason text, which may quote cells. It
// returns a non-nil error under RowErrorFail or when the sidecar write fails.
func (pol *rowPolicy) reject(row int, fields []string, code, reason string) error {
	policy := pol.opts.OnRowError.String()
	pol.tel.Metrics.Counter("privateclean_csv_rows_malformed_total",
		"Malformed CSV rows encountered, by reason code and policy.",
		telemetry.L("code", code), telemetry.L("policy", policy)).Inc()
	pol.tel.Log.Debug("malformed row", "row", row, "code", code, "policy", policy)
	switch pol.opts.OnRowError {
	case RowErrorFail:
		return faults.Errorf(faults.ErrBadInput, "csvio: row %d: %s", row, reason)
	case RowErrorSkip:
		pol.rep.Skipped++
	case RowErrorQuarantine:
		pol.rep.Quarantined++
		record := append([]string{strconv.Itoa(row), reason}, fields...)
		if err := pol.quarantine.Write(record); err != nil {
			return faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("csvio: quarantine: %w", err))
		}
	}
	detail := &pol.structural
	if code == "bad_numeric" {
		detail = &pol.numeric
	}
	if len(*detail) < maxReportedRows {
		*detail = append(*detail, RowError{Row: row, Reason: reason})
	}
	return nil
}

// finish flushes the quarantine sidecar and closes the Report over the kept
// row count, recording the load's metrics.
func (pol *rowPolicy) finish(rows int) (*Report, error) {
	if pol.quarantine != nil {
		pol.quarantine.Flush()
		if err := pol.quarantine.Error(); err != nil {
			return nil, faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("csvio: quarantine: %w", err))
		}
	}
	rep := &pol.rep
	rep.Rows = rows
	rep.BadRows = append(pol.structural, pol.numeric...)
	if len(rep.BadRows) > maxReportedRows {
		rep.BadRows = rep.BadRows[:maxReportedRows]
	}
	pol.tel.Metrics.Counter("privateclean_csv_rows_total", "Rows kept from CSV loads.").Add(float64(rows))
	pol.tel.Metrics.Histogram("privateclean_csv_rows_per_load", "Kept rows per CSV load.",
		telemetry.RowBuckets).Observe(float64(rows))
	if !rep.Clean() {
		pol.tel.Log.Warn("lossy CSV load", "rows", rows, "skipped", rep.Skipped,
			"quarantined", rep.Quarantined, "policy", pol.opts.OnRowError.String())
	}
	return rep, nil
}

// ReadFileWithReport is ReadWithReport over a file.
func ReadFileWithReport(path string, opts Options) (*relation.Relation, *Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, faults.Wrap(faults.ErrBadInput, fmt.Errorf("csvio: %w", err))
	}
	defer f.Close()
	return ReadWithReport(f, opts)
}

// Write stores a relation as CSV with a header row. NaN numeric cells are
// written as the literal "NaN" and Null discrete cells as relation.Null
// ("NULL") — explicit sentinels rather than empty cells, because a
// fully-empty row (possible for single-column relations) would be silently
// skipped by CSV readers and break the round trip.
func Write(w io.Writer, rel *relation.Relation) error {
	cw := csv.NewWriter(w)
	if err := WriteRows(cw, rel, true); err != nil {
		return fmt.Errorf("csvio: %w", err)
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("csvio: %w", err)
	}
	return nil
}

// WriteRows writes rel's rows to cw with Write's cell conventions, after the
// header row when header is set; the caller flushes. The chunked privatize
// pipeline and the cleaning engine write through it window by window, so
// their bytes equal Write's over the whole relation.
func WriteRows(cw *csv.Writer, rel *relation.Relation, header bool) error {
	cols := rel.Schema().Columns()
	record := make([]string, len(cols))
	// Each column is read once: numeric ones as their values, discrete ones
	// as their encoding, rendered as Domain[Codes[i]].
	nums := make([][]float64, len(cols))
	discs := make([]*relation.DiscreteIndex, len(cols))
	for c, col := range cols {
		record[c] = col.Name
		var err error
		if col.Kind == relation.Numeric {
			nums[c], err = rel.Numeric(col.Name)
		} else {
			discs[c], err = rel.DiscreteIndex(col.Name)
		}
		if err != nil {
			return err
		}
	}
	if header {
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	for i := range rel.NumRows() {
		for c, col := range cols {
			switch col.Kind {
			case relation.Numeric:
				record[c] = strconv.FormatFloat(nums[c][i], 'g', -1, 64)
			case relation.Discrete:
				record[c] = discs[c].Value(i)
			}
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile stores a relation as a CSV file, atomically: the data is staged
// in a temp file in the same directory and renamed into place, so a crash
// mid-write never leaves a truncated view on disk.
func WriteFile(path string, rel *relation.Relation) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return Write(w, rel)
	})
}

// QuarantineFileSuffix is the conventional sidecar name: quarantined rows of
// "x.csv" land in "x.csv.quarantine" unless the caller chooses otherwise.
const QuarantineFileSuffix = ".quarantine"
