package csvio

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
)

// Out-of-core loading. ReadWithReport buffers every structurally kept record
// before it decodes them; for sources larger than RAM the same semantics are
// recovered from bounded-memory scans instead:
//
//	scan 1 (kinds)   — infer column kinds exactly as ReadWithReport does,
//	                   holding one row at a time;
//	scan 2 (profile) — with kinds fixed, decode every row under the full row
//	                   policy (arity/syntax/bad_numeric), one window of
//	                   columns at a time: the decoder's dictionaries become
//	                   the domains, its numeric columns the ranges;
//	scan 3+          — a ChunkIterator decodes the kept rows into bounded
//	                   windows for the consumer (privatize, clean, collect),
//	                   checking each window's values against the domains.
//
// All of them, ReadWithReport included, turn a record into columns through
// the one rowDecoder, so a Profile plus a ChunkIterator reproduce
// ReadWithReport exactly: the same schema, the same kept rows in the same
// order, the same Report counters, and the same typed errors under the fail
// policy. The only observable difference is sidecar ordering: quarantined
// rows are written in input order, where the in-memory loader groups
// arity/syntax rows before bad_numeric rows.

// Profile summarizes a CSV source after the kind and domain scans: everything
// a streaming consumer needs before it sees the first row window.
type Profile struct {
	// Columns is the resolved schema in header order.
	Columns []relation.Column
	// Rows is the number of kept data rows (= Report.Rows).
	Rows int
	// Domains maps each discrete column to its sorted distinct values,
	// including relation.Null when the column has empty cells — identical to
	// relation.Domain over the materialized load.
	Domains map[string][]string
	// Deltas maps each numeric column to max-min over its finite cells (0
	// when the column has none), the Proposition 1 sensitivity.
	Deltas map[string]float64
	// Lows maps each numeric column to the minimum over its finite cells (0
	// when the column has none); with Deltas it anchors the released bin
	// layout in the view metadata.
	Lows map[string]float64
	// Report is the row-policy accounting of the profile scan.
	Report *Report
	// DataBytes is the on-disk size of the source, for chunk sizing.
	DataBytes int64
}

// Schema builds the relation schema the profile resolved.
func (p *Profile) Schema() (relation.Schema, error) { return newSchema(p.Columns) }

// openSource is newSource over a file, reading with ReuseRecord: the record
// next returns is valid only until the following call, so the decoder copies
// the values that outlive a row.
func openSource(path string) (*source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, faults.Wrap(faults.ErrBadInput, fmt.Errorf("csvio: %w", err))
	}
	src, err := newSource(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	src.f = f
	src.cr.ReuseRecord = true // after the header, which must outlive the first row
	return src, nil
}

func (s *source) Close() error { return s.f.Close() }

// scanKinds is scan 1: infer column kinds over the structurally kept rows,
// holding one row at a time. Under the fail policy a malformed row aborts
// with the same typed error ReadWithReport raises.
func scanKinds(path string, opts Options) ([]relation.Column, []string, error) {
	src, err := openSource(path)
	if err != nil {
		return nil, nil, err
	}
	defer src.Close()

	header := src.header
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
			// Dropped rows contribute no kind evidence. Under the fail
			// policy the load dies here, matching the in-memory loader —
			// including its one malformed-row counter increment.
			if opts.OnRowError == RowErrorFail {
				return nil, nil, newRowPolicy(opts, header).reject(src.physical, rec, code, reason)
			}
			continue
		}
		infer.add(rec)
	}
	return infer.columns(), header, nil
}

// ProfileFile runs the kind and domain scans over a CSV file. The resulting
// Profile carries the same schema, kept-row count, domains, sensitivities,
// and Report as a materialized ReadFileWithReport under the same Options —
// while holding at most one window of decoded rows plus the dictionaries.
func ProfileFile(path string, opts Options) (*Profile, error) {
	if opts.OnRowError == RowErrorQuarantine && opts.Quarantine == nil {
		return nil, faults.Errorf(faults.ErrUsage, "csvio: quarantine policy needs a quarantine writer")
	}
	cols, header, err := scanKinds(path, opts)
	if err != nil {
		return nil, err
	}
	src, err := openSource(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	pol := newRowPolicy(opts, header)

	prof := &Profile{
		Columns: cols,
		Domains: make(map[string][]string),
		Deltas:  make(map[string]float64),
		Lows:    make(map[string]float64),
	}
	dec := newRowDecoder(cols, relation.DefaultWindow)
	mins := make([]float64, len(cols))
	maxs := make([]float64, len(cols))
	seenFinite := make([]bool, len(cols))
	// foldRanges takes the decoded window into the numeric ranges and
	// empties the decoder's buffers in place, keeping its dictionaries.
	foldRanges := func() {
		for c := range cols {
			for _, v := range dec.nums[c] {
				switch {
				case math.IsNaN(v):
				case !seenFinite[c]:
					mins[c], maxs[c], seenFinite[c] = v, v, true
				case v < mins[c]:
					mins[c] = v
				case v > maxs[c]:
					maxs[c] = v
				}
			}
			dec.nums[c], dec.codes[c] = dec.nums[c][:0], dec.codes[c][:0]
		}
		prof.Rows += dec.rows
		dec.rows = 0
	}
	for {
		rec, code, reason, err := src.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if code == "" { // of the header's arity: decode it, or reject a bad numeric cell
			code, reason = "bad_numeric", dec.decode(rec)
		}
		if reason != "" {
			if rerr := pol.reject(src.physical, rec, code, reason); rerr != nil {
				return nil, rerr
			}
		}
		if dec.rows == relation.DefaultWindow {
			foldRanges()
		}
	}
	foldRanges()
	if prof.Report, err = pol.finish(prof.Rows); err != nil {
		return nil, err
	}

	for c, col := range cols {
		switch col.Kind {
		case relation.Discrete:
			// Copied, so a column with no kept row gets an empty domain, not nil.
			dom := append([]string{}, dec.domains[c]...)
			slices.Sort(dom)
			prof.Domains[col.Name] = dom
		case relation.Numeric:
			// Zero when the column has no finite cell.
			prof.Deltas[col.Name] = maxs[c] - mins[c]
			prof.Lows[col.Name] = mins[c]
		}
	}
	if info, err := os.Stat(path); err == nil {
		prof.DataBytes = info.Size()
	}
	return prof, nil
}

// ChunkIterator streams the kept rows of a profiled CSV source as bounded
// relation windows (relation.Iterator). Window k holds kept rows
// [k*window, (k+1)*window) in input order with ReadWithReport's cell
// conventions, so the concatenation of all windows equals the materialized
// load. Rows the profile scan rejected are skipped silently — they were
// already counted (or, under the fail policy, already fatal). A pass finding
// other than the profiled kept rows fails with ErrBadInput.
type ChunkIterator struct {
	src    *source
	schema relation.Schema
	cols   []relation.Column
	// domains are the profiled ones: a window value outside them means the
	// file changed since profiling.
	domains map[string][]string
	window  int
	done    bool
	// want is the profiled kept-row count; rows counts the rows yielded.
	want, rows int
}

// NewChunkIterator opens a streaming pass over path using the schema prof
// resolved, yielding windows of at most window rows (relation.DefaultWindow
// if <= 0).
func NewChunkIterator(path string, prof *Profile, window int) (*ChunkIterator, error) {
	schema, err := prof.Schema()
	if err != nil {
		return nil, err
	}
	if window <= 0 {
		window = relation.DefaultWindow
	}
	src, err := openSource(path)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(prof.Columns))
	for c, col := range prof.Columns {
		names[c] = col.Name
	}
	if !slices.Equal(names, src.header) {
		src.Close()
		return nil, faults.Errorf(faults.ErrBadInput,
			"csvio: source header %q, profile has %q (file changed since profiling?)", src.header, names)
	}
	return &ChunkIterator{src: src, schema: schema, cols: prof.Columns, domains: prof.Domains, window: window, want: prof.Rows}, nil
}

// Schema returns the schema every window carries.
func (it *ChunkIterator) Schema() relation.Schema { return it.schema }

// Close releases the underlying file. Next returns io.EOF afterwards.
func (it *ChunkIterator) Close() error {
	it.done = true
	return it.src.Close()
}

// Next decodes the next window of kept rows, or returns io.EOF after the
// last one. Each window owns its columns and dictionaries, so a consumer
// may hold several.
func (it *ChunkIterator) Next() (*relation.Relation, error) {
	if it.done {
		return nil, io.EOF
	}
	dec := newRowDecoder(it.cols, it.window)
	for dec.rows < it.window {
		rec, code, _, err := it.src.next()
		if err == io.EOF {
			it.done = true
			break
		}
		if err != nil {
			return nil, err
		}
		// A row the profile scan rejected is malformed again, or decodes to
		// nothing.
		if code == "" {
			dec.decode(rec)
		}
	}
	if it.rows += dec.rows; it.rows > it.want || it.done && it.rows < it.want {
		it.done = true
		return nil, faults.Errorf(faults.ErrBadInput,
			"csvio: source no longer holds the %d profiled rows (file changed since profiling?)", it.want)
	}
	for c, col := range it.cols {
		for _, v := range dec.domains[c] {
			if _, ok := slices.BinarySearch(it.domains[col.Name], v); !ok {
				it.done = true
				return nil, faults.Errorf(faults.ErrBadInput,
					"csvio: column %q holds a value outside its profiled domain (file changed since profiling?)", col.Name)
			}
		}
	}
	if dec.rows == 0 {
		return nil, io.EOF
	}
	rel, err := dec.build(it.schema)
	if err != nil {
		return nil, faults.Wrap(faults.ErrInternal, fmt.Errorf("csvio: %w", err))
	}
	return rel, nil
}
