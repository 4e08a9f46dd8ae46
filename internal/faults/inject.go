package faults

import (
	"errors"
	"io"
	"math"
	"strconv"
	"strings"
)

// ErrInjected is the default error produced by the injection wrappers. Tests
// match it with errors.Is to confirm a failure came from the harness rather
// than the code under test.
var ErrInjected = errors.New("injected fault")

// FailingReader delivers the underlying reader's bytes until FailAt bytes
// have been read, then returns Err (ErrInjected if nil). It deterministically
// simulates an input that dies mid-stream — a dropped NFS mount, a truncated
// pipe. FailAt = 0 fails on the first read. Seek delegates to R, and FailAt
// counts the bytes delivered across rewinds, so a fault can be placed in any
// pass of a reader that makes several.
type FailingReader struct {
	R      io.ReadSeeker
	FailAt int64 // fail once this many bytes have been delivered
	Err    error // error to return; defaults to ErrInjected

	read int64
}

// Read implements io.Reader.
func (f *FailingReader) Read(p []byte) (int, error) {
	if f.read >= f.FailAt {
		return 0, f.err()
	}
	if max := f.FailAt - f.read; int64(len(p)) > max {
		p = p[:max]
	}
	n, err := f.R.Read(p)
	f.read += int64(n)
	if err == io.EOF {
		// The underlying data ran out before the trigger: pass EOF through.
		return n, err
	}
	if err == nil && f.read >= f.FailAt {
		err = f.err()
	}
	return n, err
}

// Seek implements io.Seeker.
func (f *FailingReader) Seek(offset int64, whence int) (int64, error) {
	return f.R.Seek(offset, whence)
}

func (f *FailingReader) err() error {
	if f.Err != nil {
		return f.Err
	}
	return ErrInjected
}

// TruncatingReader delivers R's bytes up to offset Limit and then reports a
// clean io.EOF — a file that was cut short without any error, the hardest
// truncation to detect. Seek delegates to R, so every pass after a rewind
// sees the same cut.
type TruncatingReader struct {
	R     io.ReadSeeker
	Limit int64

	pos int64
}

// Read implements io.Reader.
func (t *TruncatingReader) Read(p []byte) (int, error) {
	if t.pos >= t.Limit {
		return 0, io.EOF
	}
	if max := t.Limit - t.pos; int64(len(p)) > max {
		p = p[:max]
	}
	n, err := t.R.Read(p)
	t.pos += int64(n)
	return n, err
}

// Seek implements io.Seeker.
func (t *TruncatingReader) Seek(offset int64, whence int) (int64, error) {
	pos, err := t.R.Seek(offset, whence)
	if err == nil {
		t.pos = pos
	}
	return pos, err
}

// FailingWriter accepts bytes until FailAt have been written, then fails.
// With Short set it performs a short write (accepts part of the buffer and
// returns the error with n < len(p)), the io.Writer contract's nastiest
// corner; otherwise it rejects the write outright.
type FailingWriter struct {
	W      io.Writer
	FailAt int64
	Err    error // defaults to ErrInjected
	Short  bool

	written int64
}

// Write implements io.Writer.
func (f *FailingWriter) Write(p []byte) (int, error) {
	if f.written >= f.FailAt {
		return 0, f.err()
	}
	if max := f.FailAt - f.written; int64(len(p)) > max {
		if !f.Short {
			return 0, f.err()
		}
		n, _ := f.W.Write(p[:max])
		f.written += int64(n)
		return n, f.err()
	}
	n, err := f.W.Write(p)
	f.written += int64(n)
	return n, err
}

func (f *FailingWriter) err() error {
	if f.Err != nil {
		return f.Err
	}
	return ErrInjected
}

// Trigger fires deterministically on the Nth event (0-based). Wrappers and
// hooks use it for "fail on chunk N" style injection.
type Trigger struct {
	N     int64 // fire when the counter reaches N
	count int64
}

// Hit advances the counter and reports whether the trigger fired.
func (t *Trigger) Hit() bool {
	fired := t.count == t.N
	t.count++
	return fired
}

// Count returns how many events have been observed.
func (t *Trigger) Count() int64 { return t.count }

// --- CSV corrupters -------------------------------------------------------
//
// These operate on raw CSV text so tests can build malformed inputs from
// well-formed ones. Row indices are 0-based over data rows (the header is
// row -1 and never touched unless stated).

// InjectRaggedRow drops the last field of data row i, producing a row whose
// arity disagrees with the header.
func InjectRaggedRow(csv string, i int) string {
	return mapRow(csv, i, func(fields []string) []string {
		if len(fields) <= 1 {
			return fields
		}
		return fields[:len(fields)-1]
	})
}

// InjectExtraField appends a spurious field to data row i.
func InjectExtraField(csv string, i int) string {
	return mapRow(csv, i, func(fields []string) []string {
		return append(fields, "SPURIOUS")
	})
}

// InjectCell overwrites column c of data row i with v. Use it to plant
// "NaN", "Inf", or garbage into a numeric column.
func InjectCell(csv string, i, c int, v string) string {
	return mapRow(csv, i, func(fields []string) []string {
		if c < len(fields) {
			fields[c] = v
		}
		return fields
	})
}

// InjectNaN plants a NaN into column c of data row i.
func InjectNaN(csv string, i, c int) string { return InjectCell(csv, i, c, "NaN") }

// InjectInf plants a +Inf into column c of data row i.
func InjectInf(csv string, i, c int) string {
	return InjectCell(csv, i, c, strconv.FormatFloat(math.Inf(1), 'g', -1, 64))
}

// TruncateAt returns the first n bytes of the text — a file cut mid-row.
func TruncateAt(text string, n int) string {
	if n >= len(text) {
		return text
	}
	return text[:n]
}

// mapRow applies f to the comma-split fields of data row i. Quoting is not
// preserved; the corrupters target the simple CSV the test suites generate.
func mapRow(csv string, i int, f func([]string) []string) string {
	lines := strings.Split(csv, "\n")
	row := i + 1 // skip header
	if row < 0 || row >= len(lines) || lines[row] == "" {
		return csv
	}
	lines[row] = strings.Join(f(strings.Split(lines[row], ",")), ",")
	return strings.Join(lines, "\n")
}
