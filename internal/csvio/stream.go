package csvio

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
)

// Out-of-core loading. ReadWithReport materializes every kept row before the
// relation is built; for sources larger than RAM the same semantics are
// recovered from bounded-memory scans instead:
//
//	scan 1 (kinds)   — infer column kinds exactly as ReadWithReport does,
//	                   holding one row at a time;
//	scan 2 (profile) — with kinds fixed, apply the full row policy
//	                   (arity/syntax/bad_numeric) and accumulate the
//	                   per-attribute domains, numeric ranges, and the load
//	                   Report;
//	scan 3+          — a ChunkIterator re-decodes the kept rows in bounded
//	                   windows for the consumer (privatize, clean, collect).
//
// A Profile plus a ChunkIterator reproduce ReadWithReport exactly: the same
// schema, the same kept rows in the same order, the same Report counters, and
// the same typed errors under the fail policy. The only observable difference
// is sidecar ordering: quarantined rows are written in input order, where the
// in-memory loader groups arity/syntax rows before bad_numeric rows.

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
func (p *Profile) Schema() (relation.Schema, error) {
	schema, err := relation.NewSchema(p.Columns...)
	if err != nil {
		return relation.Schema{}, faults.Wrap(faults.ErrBadInput, fmt.Errorf("csvio: %w", err))
	}
	return schema, nil
}

// openSource is newSource over a file, reading with ReuseRecord: the fields
// next returns are valid only until the following call, so callers copy the
// strings that outlive a row.
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
func scanKinds(path string, opts Options) ([]relation.Kind, []string, error) {
	src, err := openSource(path)
	if err != nil {
		return nil, nil, err
	}
	defer src.Close()

	header := src.header
	kinds := make([]relation.Kind, len(header))
	forced := make([]bool, len(header))
	numeric := make([]bool, len(header))
	seenVal := make([]bool, len(header))
	for c, name := range header {
		if k, ok := opts.ForceKinds[name]; ok {
			kinds[c] = k
			forced[c] = true
			continue
		}
		numeric[c] = true
	}
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
		for c := range header {
			if forced[c] || !numeric[c] || rec[c] == "" {
				continue
			}
			seenVal[c] = true
			if _, err := strconv.ParseFloat(rec[c], 64); err != nil {
				numeric[c] = false
			}
		}
	}
	for c := range header {
		if forced[c] {
			continue
		}
		if numeric[c] && seenVal[c] {
			kinds[c] = relation.Numeric
		} else {
			kinds[c] = relation.Discrete
		}
	}
	return kinds, header, nil
}

// ProfileFile runs the kind and domain scans over a CSV file. The resulting
// Profile carries the same schema, kept-row count, domains, sensitivities,
// and Report as a materialized ReadFileWithReport under the same Options —
// without ever holding more than one row resident.
func ProfileFile(path string, opts Options) (*Profile, error) {
	if opts.OnRowError == RowErrorQuarantine && opts.Quarantine == nil {
		return nil, faults.Errorf(faults.ErrUsage, "csvio: quarantine policy needs a quarantine writer")
	}
	kinds, header, err := scanKinds(path, opts)
	if err != nil {
		return nil, err
	}
	src, err := openSource(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	pol := newRowPolicy(opts, header)

	domains := make(map[string]map[string]struct{})
	for c, name := range header {
		if kinds[c] == relation.Discrete {
			domains[name] = make(map[string]struct{})
		}
	}
	mins := make([]float64, len(header))
	maxs := make([]float64, len(header))
	seenFinite := make([]bool, len(header))
	vals := make([]float64, len(header))
	kept := 0

rowLoop:
	for {
		rec, code, reason, err := src.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if code != "" {
			if rerr := pol.reject(src.physical, rec, code, reason); rerr != nil {
				return nil, rerr
			}
			continue
		}
		// Validate numeric cells in header order, so the first offending
		// column is the one ReadWithReport would report.
		for c, name := range header {
			if kinds[c] != relation.Numeric {
				continue
			}
			vals[c] = math.NaN()
			if rec[c] == "" {
				continue
			}
			v, bad := parseNumeric(name, rec[c])
			if bad != "" {
				if rerr := pol.reject(src.physical, rec, "bad_numeric", bad); rerr != nil {
					return nil, rerr
				}
				continue rowLoop
			}
			vals[c] = v
		}
		// Row kept: fold it into domains and ranges.
		for c, name := range header {
			switch kinds[c] {
			case relation.Discrete:
				v := rec[c]
				if v == "" {
					v = relation.Null
				}
				if _, ok := domains[name][v]; !ok {
					// rec's strings share the reader's buffer (ReuseRecord);
					// clone the ones that outlive this row.
					domains[name][string(append([]byte(nil), v...))] = struct{}{}
				}
			case relation.Numeric:
				v := vals[c]
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
		}
		kept++
	}
	rep, err := pol.finish(kept)
	if err != nil {
		return nil, err
	}

	prof := &Profile{
		Columns: make([]relation.Column, len(header)),
		Rows:    rep.Rows,
		Domains: make(map[string][]string),
		Deltas:  make(map[string]float64),
		Lows:    make(map[string]float64),
		Report:  rep,
	}
	for c, name := range header {
		prof.Columns[c] = relation.Column{Name: name, Kind: kinds[c]}
		switch kinds[c] {
		case relation.Discrete:
			dom := make([]string, 0, len(domains[name]))
			for v := range domains[name] {
				dom = append(dom, v)
			}
			sort.Strings(dom)
			prof.Domains[name] = dom
		case relation.Numeric:
			// Zero when the column has no finite cell.
			prof.Deltas[name] = maxs[c] - mins[c]
			prof.Lows[name] = mins[c]
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
// already counted (or, under the fail policy, already fatal).
type ChunkIterator struct {
	src    *source
	schema relation.Schema
	kinds  []relation.Kind
	window int
	done   bool
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
	kinds := make([]relation.Kind, len(prof.Columns))
	for c, col := range prof.Columns {
		if col.Name != src.header[c] {
			src.Close()
			return nil, faults.Errorf(faults.ErrBadInput,
				"csvio: source column %d is %q, profile has %q (file changed since profiling?)", c+1, src.header[c], col.Name)
		}
		kinds[c] = col.Kind
	}
	return &ChunkIterator{src: src, schema: schema, kinds: kinds, window: window}, nil
}

// Schema returns the schema every window carries.
func (it *ChunkIterator) Schema() relation.Schema { return it.schema }

// Close releases the underlying file. Next returns io.EOF afterwards.
func (it *ChunkIterator) Close() error {
	it.done = true
	return it.src.Close()
}

// Next decodes the next window of kept rows, or returns io.EOF after the
// last one.
func (it *ChunkIterator) Next() (*relation.Relation, error) {
	if it.done {
		return nil, io.EOF
	}
	header := it.src.header
	numeric := make(map[string][]float64)
	discrete := make(map[string][]string)
	for c, name := range header {
		switch it.kinds[c] {
		case relation.Numeric:
			numeric[name] = make([]float64, 0, it.window)
		case relation.Discrete:
			discrete[name] = make([]string, 0, it.window)
		}
	}
	kept := 0
	vals := make([]float64, len(header))
rowLoop:
	for kept < it.window {
		rec, code, _, err := it.src.next()
		if err == io.EOF {
			it.done = true
			break
		}
		if err != nil {
			return nil, err
		}
		if code != "" {
			continue
		}
		// Re-validate numeric cells with the profiled kinds so the iterator
		// drops exactly the rows the profile scan rejected.
		for c, name := range header {
			if it.kinds[c] != relation.Numeric {
				continue
			}
			if rec[c] == "" {
				vals[c] = math.NaN()
				continue
			}
			v, bad := parseNumeric(name, rec[c])
			if bad != "" {
				continue rowLoop
			}
			vals[c] = v
		}
		for c, name := range header {
			switch it.kinds[c] {
			case relation.Numeric:
				numeric[name] = append(numeric[name], vals[c])
			case relation.Discrete:
				v := rec[c]
				if v == "" {
					v = relation.Null
				} else {
					v = string(append([]byte(nil), v...)) // outlives ReuseRecord
				}
				discrete[name] = append(discrete[name], v)
			}
		}
		kept++
	}
	if kept == 0 {
		return nil, io.EOF
	}
	rel, err := relation.FromColumns(it.schema, numeric, discrete)
	if err != nil {
		return nil, faults.Wrap(faults.ErrInternal, fmt.Errorf("csvio: %w", err))
	}
	return rel, nil
}
