// Package csvio loads and stores relations as CSV files with a header row.
// It is the I/O substrate for the CLI and the examples.
//
// Every load is the same two scans of a seekable input. Scan 1 infers the
// column kinds: a column whose every non-empty cell parses as a float becomes
// numeric, everything else discrete, and callers can force kinds per column.
// Scan 2 decodes every record in input order under the row policy through
// one row decoder: numeric cells become floats and discrete ones dictionary
// codes, the relation's own encoding, and empty cells become NaN (numeric)
// or relation.Null (discrete). The in-memory load (ReadWithReport) keeps
// every decoded row; the streaming one (ProfileFile) folds each window into
// the profile and drops it, and a ChunkIterator later decodes the kept rows
// window by window through the same decoder. So the two modes agree on the
// relation, the Report and the quarantine sidecar by construction.
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
	"slices"
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

// newSchema builds the schema of resolved columns.
func newSchema(cols []relation.Column) (relation.Schema, error) {
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return relation.Schema{}, faults.Wrap(faults.ErrBadInput, fmt.Errorf("csvio: %w", err))
	}
	return schema, nil
}

// ReadWithReport loads a relation from CSV data with a header row, with a
// per-row accounting of skipped and quarantined rows. It runs the two scans
// of every load (scan), each from offset 0 of r, and keeps every decoded row.
// The report is non-nil whenever the error is nil.
func ReadWithReport(r io.ReadSeeker, opts Options) (*relation.Relation, *Report, error) {
	dec, rep, err := scan(r, opts, nil)
	if err != nil {
		return nil, nil, err
	}
	schema, err := newSchema(dec.cols)
	if err != nil {
		return nil, nil, err
	}
	rel, err := dec.build(schema)
	if err != nil {
		return nil, nil, faults.Wrap(faults.ErrInternal, fmt.Errorf("csvio: %w", err))
	}
	return rel, rep, nil
}

// scan is the body of every CSV load: scan 1 (scanKinds) infers the column
// kinds and counts the rows of the header's arity, holding one row at a
// time; scan 2 decodes every record in input order under the full row
// policy (arity, syntax, bad_numeric) through one rowDecoder. Each scan
// starts at offset 0 of r. With rg nil the decoder keeps every row,
// pre-sized from scan 1's count. Otherwise scan sizes rg to the columns and
// widens it by each window of relation.DefaultWindow rows before dropping
// the window, and by the last, partial one. Either way the returned
// decoder's dictionaries cover every kept row.
func scan(r io.ReadSeeker, opts Options, rg *ranges) (*rowDecoder, *Report, error) {
	if opts.OnRowError == RowErrorQuarantine && opts.Quarantine == nil {
		return nil, nil, faults.Errorf(faults.ErrUsage, "csvio: quarantine policy needs a quarantine writer")
	}
	cols, header, kept, err := scanKinds(r, opts)
	if err != nil {
		return nil, nil, err
	}
	src, err := newSource(r)
	if err != nil {
		return nil, nil, err
	}
	if !slices.Equal(src.header, header) {
		return nil, nil, faults.Errorf(faults.ErrBadInput,
			"csvio: source header %q, first scan read %q (input changed between scans?)", src.header, header)
	}
	pol := newRowPolicy(opts, header)
	capacity := kept
	if rg != nil {
		capacity = min(kept, relation.DefaultWindow)
		*rg = make(ranges, len(cols))
		for c := range *rg {
			(*rg)[c] = [2]float64{math.Inf(1), math.Inf(-1)}
		}
	}
	dec := newRowDecoder(cols, capacity)
	for {
		rec, code, reason, err := src.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if code == "" { // of the header's arity: decode it, or reject a bad numeric cell
			code, reason = "bad_numeric", dec.decode(rec)
		}
		if reason != "" {
			if rerr := pol.reject(src.physical, rec, code, reason); rerr != nil {
				return nil, nil, rerr
			}
		} else if rg != nil && dec.rows%relation.DefaultWindow == 0 {
			rg.widen(dec.nums)
			dec.truncate()
		}
	}
	if rg != nil {
		rg.widen(dec.nums)
	}
	rep, err := pol.finish(dec.rows)
	if err != nil {
		return nil, nil, err
	}
	return dec, rep, nil
}

// ranges bound each numeric column's finite cells as {lo, hi}; lo > hi while
// it has none.
type ranges [][2]float64

// widen takes the decoded numeric columns into the ranges; NaN cells fail
// both comparisons.
func (rg ranges) widen(nums [][]float64) {
	for c, col := range nums {
		for _, v := range col {
			if v < rg[c][0] {
				rg[c][0] = v
			}
			if v > rg[c][1] {
				rg[c][1] = v
			}
		}
	}
}

// scanKinds is scan 1: it infers column kinds over the rows of the header's
// arity, holding one row at a time, and counts them. A column is numeric
// unless a non-empty cell fails strconv.ParseFloat, discrete when it has no
// non-empty cell at all, and a kind forced in opts wins. Dropped rows give no
// evidence. Under the fail policy a malformed row aborts the scan with the
// typed error, and the one malformed-row count, of the load.
func scanKinds(r io.ReadSeeker, opts Options) (cols []relation.Column, header []string, kept int, err error) {
	src, err := newSource(r)
	if err != nil {
		return nil, nil, 0, err
	}
	header = src.header
	cols = make([]relation.Column, len(header))
	// numeric: not forced, and no non-empty cell has failed to parse yet.
	numeric, seen := make([]bool, len(header)), make([]bool, len(header))
	for c, name := range header {
		kind, forced := opts.ForceKinds[name]
		if !forced {
			kind = relation.Discrete
		}
		cols[c], numeric[c] = relation.Column{Name: name, Kind: kind}, !forced
	}
	for {
		rec, code, reason, err := src.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, 0, err
		}
		if code != "" {
			if opts.OnRowError == RowErrorFail {
				return nil, nil, 0, newRowPolicy(opts, header).reject(src.physical, rec, code, reason)
			}
			continue
		}
		for c, cell := range rec {
			if numeric[c] && cell != "" {
				seen[c] = true
				if !plainDecimal(cell) {
					_, perr := strconv.ParseFloat(cell, 64)
					numeric[c] = perr == nil
				}
			}
		}
		kept++
	}
	for c := range cols {
		if numeric[c] && seen[c] {
			cols[c].Kind = relation.Numeric
		}
	}
	return cols, header, kept, nil
}

// plainDecimal reports whether the non-empty cell is [+-]digits[.digits]
// with fewer than 300 integer digits: strconv.ParseFloat parses every such
// cell to a finite value without error, so scan 1 need not call it. Every
// other form (exponents, inf/nan, hex, underscores, a bare dot) goes to
// ParseFloat.
func plainDecimal(cell string) bool {
	i := 0
	if cell[0] == '+' || cell[0] == '-' {
		i++
	}
	start := i
	for i < len(cell) && '0' <= cell[i] && cell[i] <= '9' {
		i++
	}
	if n := i - start; n == 0 || n >= 300 {
		return false
	}
	if i == len(cell) {
		return true
	}
	if cell[i] != '.' || i+1 == len(cell) {
		return false
	}
	for i++; i < len(cell); i++ {
		if cell[i] < '0' || '9' < cell[i] {
			return false
		}
	}
	return true
}

// ReadSchema resolves the schema of the CSV file at path under opts' forced
// kinds and row policy with scan 1 alone: it decodes no cell, writes no
// quarantine sidecar and logs no lossy load. Under the fail policy an arity
// or syntax row fails it with the error a load raises.
func ReadSchema(path string, opts Options) (relation.Schema, error) {
	f, err := openFile(path)
	if err != nil {
		return relation.Schema{}, err
	}
	defer f.Close()
	cols, _, _, err := scanKinds(f, opts)
	if err != nil {
		return relation.Schema{}, err
	}
	return newSchema(cols)
}

// openFile opens a CSV input; an unreadable one is bad input.
func openFile(path string) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, faults.Wrap(faults.ErrBadInput, fmt.Errorf("csvio: %w", err))
	}
	return f, nil
}

// source is one sequential pass over CSV data from its start: BOM stripped,
// header read and validated, data rows classified for the row policy.
type source struct {
	cr     *csv.Reader
	header []string
	// physical is the 1-based physical row number of the last record read
	// (the header is row 1).
	physical int
}

// newSource rewinds r, strips a UTF-8 BOM, then reads and validates the
// header row: a reader that cannot seek (so a load fails before it reads a
// byte of a pipe), or a missing, unreadable, empty or duplicate name, is a
// typed faults.ErrBadInput. Data rows are read with ReuseRecord: the record next
// returns is valid only until the following call, so the decoder copies the
// values that outlive a row.
func newSource(r io.ReadSeeker) (*source, error) {
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, faults.Errorf(faults.ErrBadInput,
			"csvio: a CSV load reads its input twice, so it must be a regular file, not a pipe or FIFO: %w", err)
	}
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
	cr.ReuseRecord = true // after the header, which must outlive the first row
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
// load's Report, whose BadRows list the rows in input order.
type rowPolicy struct {
	opts       Options
	tel        *telemetry.Set
	rep        Report
	quarantine *csv.Writer
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
	if len(pol.rep.BadRows) < maxReportedRows {
		pol.rep.BadRows = append(pol.rep.BadRows, RowError{Row: row, Reason: reason})
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
	f, err := openFile(path)
	if err != nil {
		return nil, nil, err
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
