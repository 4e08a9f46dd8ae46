// Package atomicio writes files atomically: content goes to a temporary
// file in the destination's directory, is flushed and fsynced, and is then
// renamed over the destination. A crash at any point leaves either the old
// file or the new file — never a half-written artifact.
//
// That guarantee is load-bearing for PrivateClean: a truncated private view
// or metadata file silently changes the effective epsilon of a release, and
// a re-run from scratch double-spends the privacy budget. Every artifact the
// CLI and the core pipeline emit (CSV views, meta.json, provenance JSON,
// checkpoints) goes through this package.
package atomicio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"privateclean/internal/faults"
)

// WriteFile writes the destination atomically with the content produced by
// write. The temp file lives in path's directory so the final rename cannot
// cross filesystems. On any failure the temp file is removed and the
// destination is untouched; write-side failures are classified as
// faults.ErrPartialWrite.
func WriteFile(path string, write func(io.Writer) error) error {
	return writeFile(path, write, true)
}

// WriteFileKeep is WriteFile except that an error returned by the write
// callback is propagated unmodified instead of being classified as
// faults.ErrPartialWrite. Use it when the callback runs a larger pipeline
// (e.g. a CSV load emitting a quarantine sidecar) whose failures carry their
// own taxonomy kinds that callers branch on; the atomicity guarantee — old
// file or new file, never a torn one — is identical.
func WriteFileKeep(path string, write func(io.Writer) error) error {
	return writeFile(path, write, false)
}

func writeFile(path string, write func(io.Writer) error, classify bool) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		if !classify {
			return err
		}
		return faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("atomicio: writing %s: %w", path, err))
	}
	if err := tmp.Sync(); err != nil {
		return faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("atomicio: sync %s: %w", path, err))
	}
	if err := tmp.Close(); err != nil {
		return faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("atomicio: close %s: %w", path, err))
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	// fsync the directory so the rename itself is durable: without it a
	// power loss can forget the new directory entry even though the file's
	// contents were synced.
	if err := syncDir(dir); err != nil {
		return faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("atomicio: dir sync %s: %w", path, err))
	}
	return nil
}

// syncDir fsyncs a directory, making renames and file creations in it
// durable against power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFileBytes atomically writes a byte slice.
func WriteFileBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		n, err := w.Write(data)
		if err != nil {
			return err
		}
		if n != len(data) {
			return fmt.Errorf("short write: %d of %d bytes", n, len(data))
		}
		return nil
	})
}

// OpenAppend opens path for appending (creating it if needed) and fsyncs
// the parent directory so the new directory entry survives power loss. It is
// the door into the one non-atomic write shape this package sanctions:
// append-only sinks (WAL-style logs, JSONL exporters) where each record is
// written in a single Write call and a torn tail is detectable by the
// reader.
func OpenAppend(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("atomicio: open append %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("atomicio: dir sync %s: %w", path, err))
	}
	return f, nil
}

// WriteJSON atomically writes v as indented JSON with a trailing newline —
// the sidecar format shared by meta.json, provenance, and checkpoints.
func WriteJSON(path string, v any) error {
	j, err := MarshalIndented(v)
	if err != nil {
		return fmt.Errorf("atomicio: marshal %s: %w", path, err)
	}
	defer j.Release()
	return WriteFileBytes(path, j.Bytes())
}

// Indented is v rendered as WriteJSON writes it, held in a pooled buffer.
type Indented struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// indentedBufs recycles renderings. Each keeps its buffer and its
// encoder's indentation scratch, so a document rendered again at about the
// same size allocates neither. One grown past maxPooledIndented is left to
// the garbage collector, so a burst of large documents does not stay
// pooled.
var indentedBufs = sync.Pool{New: func() any {
	j := new(Indented)
	j.enc = json.NewEncoder(&j.buf)
	j.enc.SetIndent("", "  ")
	return j
}}

const maxPooledIndented = 1 << 20

// MarshalIndented renders v as json.MarshalIndent(v, "", "  ") followed by
// a newline, the bytes WriteJSON writes, into a pooled buffer. The caller
// reads them with Bytes and then calls Release; an error is
// json.MarshalIndent's.
func MarshalIndented(v any) (*Indented, error) {
	j := indentedBufs.Get().(*Indented)
	if err := j.enc.Encode(v); err != nil {
		j.Release()
		return nil, err
	}
	return j, nil
}

// Bytes returns the rendering, valid until Release.
func (j *Indented) Bytes() []byte { return j.buf.Bytes() }

// Release returns the buffer to the pool; j must not be used after.
func (j *Indented) Release() {
	if j.buf.Cap() <= maxPooledIndented {
		j.buf.Reset()
		indentedBufs.Put(j)
	}
}
