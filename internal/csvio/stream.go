package csvio

import (
	"fmt"
	"io"
	"os"
	"slices"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
)

// Out-of-core loading. ProfileFile runs the same two scans as ReadWithReport
// (scan), but its decoder holds one window of rows at a time: each window is
// folded into the numeric ranges and dropped, and the decoder's dictionaries
// become the domains. A ChunkIterator then makes scan 3 and later: it decodes
// the kept rows into bounded windows for the consumer (privatize, clean,
// collect), checking each window's values against the domains.
//
// Every scan turns a record into columns through the one rowDecoder under
// the one row policy, so a Profile plus a ChunkIterator reproduce
// ReadWithReport exactly: the same schema, the same kept rows in the same
// order, the same Report, the same quarantine sidecar bytes, and the same
// typed errors under the fail policy.

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

// ProfileFile runs the two scans of a load over a CSV file. The resulting
// Profile carries the same schema, kept-row count, domains, sensitivities,
// and Report as a materialized ReadFileWithReport under the same Options —
// while holding at most one window of decoded rows plus the dictionaries.
func ProfileFile(path string, opts Options) (*Profile, error) {
	f, err := openFile(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rg ranges
	dec, rep, err := scan(f, opts, &rg)
	if err != nil {
		return nil, err
	}

	prof := &Profile{
		Columns: dec.cols,
		Rows:    rep.Rows,
		Domains: make(map[string][]string),
		Deltas:  make(map[string]float64),
		Lows:    make(map[string]float64),
		Report:  rep,
	}
	for c, col := range dec.cols {
		switch col.Kind {
		case relation.Discrete:
			// Copied, so a column with no kept row gets an empty domain, not nil.
			dom := append([]string{}, dec.domains[c]...)
			slices.Sort(dom)
			prof.Domains[col.Name] = dom
		case relation.Numeric:
			lo, hi := rg[c][0], rg[c][1]
			if lo > hi { // no finite cell
				lo, hi = 0, 0
			}
			prof.Deltas[col.Name], prof.Lows[col.Name] = hi-lo, lo
		}
	}
	if info, err := f.Stat(); err == nil {
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
	f      *os.File
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
	f, err := openFile(path)
	if err != nil {
		return nil, err
	}
	src, err := newSource(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	names := make([]string, len(prof.Columns))
	for c, col := range prof.Columns {
		names[c] = col.Name
	}
	if !slices.Equal(names, src.header) {
		f.Close()
		return nil, faults.Errorf(faults.ErrBadInput,
			"csvio: source header %q, profile has %q (file changed since profiling?)", src.header, names)
	}
	return &ChunkIterator{f: f, src: src, schema: schema, cols: prof.Columns, domains: prof.Domains, window: window, want: prof.Rows}, nil
}

// Schema returns the schema every window carries.
func (it *ChunkIterator) Schema() relation.Schema { return it.schema }

// Close releases the underlying file. Next returns io.EOF afterwards.
func (it *ChunkIterator) Close() error {
	it.done = true
	return it.f.Close()
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
