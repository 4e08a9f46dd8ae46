// Package csvio loads and stores relations as CSV files with a header row.
// It is the I/O substrate for the CLI and the examples.
//
// On load, column kinds are inferred: a column whose every non-empty cell
// parses as a float becomes numeric, everything else discrete. Callers can
// force kinds per column. Empty cells become NaN (numeric) or relation.Null
// (discrete).
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

// Read loads a relation from CSV data with a header row.
func Read(r io.Reader, opts Options) (*relation.Relation, error) {
	rel, _, err := ReadWithReport(r, opts)
	return rel, err
}

// ReadWithReport is Read with a per-row accounting of skipped and
// quarantined rows. The report is non-nil whenever the error is nil.
func ReadWithReport(r io.Reader, opts Options) (*relation.Relation, *Report, error) {
	if opts.OnRowError == RowErrorQuarantine && opts.Quarantine == nil {
		return nil, nil, faults.Errorf(faults.ErrUsage, "csvio: quarantine policy needs a quarantine writer")
	}
	br := bufio.NewReader(r)
	if head, err := br.Peek(3); err == nil && bytes.Equal(head, []byte{0xEF, 0xBB, 0xBF}) {
		br.Discard(3) // UTF-8 BOM
	}
	cr := csv.NewReader(br)
	cr.TrimLeadingSpace = true
	cr.FieldsPerRecord = -1 // arity enforced below, under the row policy

	header, err := cr.Read()
	if err == io.EOF {
		return nil, nil, faults.Errorf(faults.ErrBadInput, "csvio: missing header row")
	}
	if err != nil {
		return nil, nil, faults.Wrap(faults.ErrBadInput, fmt.Errorf("csvio: header: %w", err))
	}
	seen := make(map[string]bool, len(header))
	for i, name := range header {
		if name == "" {
			return nil, nil, faults.Errorf(faults.ErrBadInput, "csvio: empty name for header column %d", i+1)
		}
		if seen[name] {
			return nil, nil, faults.Errorf(faults.ErrBadInput, "csvio: duplicate header column %q", name)
		}
		seen[name] = true
	}

	tel := opts.Tel
	if tel == nil {
		tel = telemetry.Default()
	}
	// Header names are schema metadata, not data: telemetry may show them.
	tel.Redact.Allow(header...)

	rep := &Report{}
	var quarantine *csv.Writer
	if opts.Quarantine != nil {
		quarantine = csv.NewWriter(opts.Quarantine)
	}
	// reject applies the row policy to one malformed row; code is the
	// vocabulary-safe reason class (arity, syntax, bad_numeric) telemetry
	// carries in place of the full reason text, which may quote cells. It
	// returns a non-nil error only under RowErrorFail.
	reject := func(row int, fields []string, code, reason string) error {
		tel.Metrics.Counter("privateclean_csv_rows_malformed_total",
			"Malformed CSV rows encountered, by reason code and policy.",
			telemetry.L("code", code), telemetry.L("policy", opts.OnRowError.String())).Inc()
		tel.Log.Debug("malformed row", "row", row, "code", code, "policy", opts.OnRowError.String())
		switch opts.OnRowError {
		case RowErrorFail:
			return faults.Errorf(faults.ErrBadInput, "csvio: row %d: %s", row, reason)
		case RowErrorSkip:
			rep.Skipped++
		case RowErrorQuarantine:
			rep.Quarantined++
			record := append([]string{strconv.Itoa(row), reason}, fields...)
			if err := quarantine.Write(record); err != nil {
				return faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("csvio: quarantine: %w", err))
			}
		}
		if len(rep.BadRows) < maxReportedRows {
			rep.BadRows = append(rep.BadRows, RowError{Row: row, Reason: reason})
		}
		return nil
	}

	var rows [][]string
	var rowNums []int // physical row number per kept row, for later parse errors
	physical := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		physical++
		if err != nil {
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				// Row-local quoting error: the policy decides.
				if rerr := reject(physical, nil, "syntax", fmt.Sprintf("csv syntax: %v", pe.Err)); rerr != nil {
					return nil, nil, rerr
				}
				continue
			}
			// Stream-level failure (the reader itself died): never skippable.
			return nil, nil, faults.Wrap(faults.ErrBadInput, fmt.Errorf("csvio: row %d: %w", physical, err))
		}
		if len(rec) != len(header) {
			reason := fmt.Sprintf("has %d fields, header has %d", len(rec), len(header))
			if rerr := reject(physical, rec, "arity", reason); rerr != nil {
				return nil, nil, rerr
			}
			continue
		}
		rows = append(rows, rec)
		rowNums = append(rowNums, physical)
	}

	// Infer kinds from the kept rows.
	kinds := make([]relation.Kind, len(header))
	for c, name := range header {
		if k, ok := opts.ForceKinds[name]; ok {
			kinds[c] = k
			continue
		}
		kinds[c] = relation.Numeric
		seenVal := false
		for _, row := range rows {
			if row[c] == "" {
				continue
			}
			seenVal = true
			if _, err := strconv.ParseFloat(row[c], 64); err != nil {
				kinds[c] = relation.Discrete
				break
			}
		}
		if !seenVal {
			kinds[c] = relation.Discrete
		}
	}

	// Validate numeric cells row-major so the row policy can still drop a
	// row whose forced-numeric cell does not parse, or whose value is an
	// explicit ±Inf (poison for every downstream aggregate). "NaN" stays
	// accepted as the missing-value sentinel the writer emits.
	clean := rows[:0]
rowLoop:
	for i, row := range rows {
		for c, name := range header {
			if kinds[c] != relation.Numeric || row[c] == "" {
				continue
			}
			v, err := strconv.ParseFloat(row[c], 64)
			reason := ""
			switch {
			case err != nil:
				reason = fmt.Sprintf("column %q: %v", name, err)
			case math.IsInf(v, 0):
				reason = fmt.Sprintf("column %q: non-finite value %q", name, row[c])
			default:
				continue
			}
			if rerr := reject(rowNums[i], row, "bad_numeric", reason); rerr != nil {
				return nil, nil, rerr
			}
			continue rowLoop
		}
		clean = append(clean, row)
	}
	rows = clean

	if quarantine != nil {
		quarantine.Flush()
		if err := quarantine.Error(); err != nil {
			return nil, nil, faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("csvio: quarantine: %w", err))
		}
	}

	cols := make([]relation.Column, len(header))
	for c, name := range header {
		cols[c] = relation.Column{Name: name, Kind: kinds[c]}
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, nil, faults.Wrap(faults.ErrBadInput, fmt.Errorf("csvio: %w", err))
	}

	numeric := make(map[string][]float64)
	discrete := make(map[string][]string)
	for c, name := range header {
		switch kinds[c] {
		case relation.Numeric:
			vals := make([]float64, len(rows))
			for i, row := range rows {
				if row[c] == "" {
					vals[i] = math.NaN()
					continue
				}
				// Validated above; a failure here is a bug, not bad input.
				v, err := strconv.ParseFloat(row[c], 64)
				if err != nil {
					return nil, nil, faults.Errorf(faults.ErrInternal, "csvio: validated cell failed to parse: %v", err)
				}
				vals[i] = v
			}
			numeric[name] = vals
		case relation.Discrete:
			vals := make([]string, len(rows))
			for i, row := range rows {
				if row[c] == "" {
					vals[i] = relation.Null
					continue
				}
				vals[i] = row[c]
			}
			discrete[name] = vals
		}
	}
	rel, err := relation.FromColumns(schema, numeric, discrete)
	if err != nil {
		return nil, nil, faults.Wrap(faults.ErrInternal, fmt.Errorf("csvio: %w", err))
	}
	rep.Rows = rel.NumRows()
	tel.Metrics.Counter("privateclean_csv_rows_total", "Rows kept from CSV loads.").Add(float64(rep.Rows))
	tel.Metrics.Histogram("privateclean_csv_rows_per_load", "Kept rows per CSV load.",
		telemetry.RowBuckets).Observe(float64(rep.Rows))
	if !rep.Clean() {
		tel.Log.Warn("lossy CSV load", "rows", rep.Rows, "skipped", rep.Skipped,
			"quarantined", rep.Quarantined, "policy", opts.OnRowError.String())
	}
	return rel, rep, nil
}

// ReadFile loads a relation from a CSV file.
func ReadFile(path string, opts Options) (*relation.Relation, error) {
	rel, _, err := ReadFileWithReport(path, opts)
	return rel, err
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
	cols := rel.Schema().Columns()
	header := make([]string, len(cols))
	for i, c := range cols {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("csvio: %w", err)
	}
	record := make([]string, len(cols))
	for i := 0; i < rel.NumRows(); i++ {
		if err := FormatRow(rel, cols, i, record); err != nil {
			return err
		}
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("csvio: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("csvio: %w", err)
	}
	return nil
}

// FormatRow renders row i of the relation into record (len == len(cols)),
// using Write's cell conventions. It is exported so the chunked pipeline can
// emit exactly the bytes Write would.
func FormatRow(rel *relation.Relation, cols []relation.Column, i int, record []string) error {
	if len(record) != len(cols) {
		return faults.Errorf(faults.ErrInternal, "csvio: record has %d cells for %d columns", len(record), len(cols))
	}
	for c, col := range cols {
		switch col.Kind {
		case relation.Numeric:
			record[c] = strconv.FormatFloat(rel.MustNumeric(col.Name)[i], 'g', -1, 64)
		case relation.Discrete:
			record[c] = rel.MustDiscrete(col.Name)[i]
		}
	}
	return nil
}

// Header returns the header record Write would emit for the relation.
func Header(rel *relation.Relation) []string {
	cols := rel.Schema().Columns()
	header := make([]string, len(cols))
	for i, c := range cols {
		header[i] = c.Name
	}
	return header
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
