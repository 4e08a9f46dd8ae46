package colstore

import (
	"fmt"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
)

// View is an opened .pcol file: a decoded relation plus the mapping (if any)
// backing its column data.
type View struct {
	rel     *relation.Relation
	release func() error
	// Mapped reports whether the column data aliases a memory mapping
	// (true on Unix hosts) or was read into the heap.
	Mapped bool
}

// Open maps (or, on platforms without mmap, reads) a .pcol file and decodes
// it. Corrupt or truncated files yield a faults.ErrBadInput error.
func Open(path string) (*View, error) {
	data, release, mapped, err := mapFile(path)
	if err != nil {
		return nil, faults.Wrap(faults.ErrBadInput, fmt.Errorf("colstore: open %s: %w", path, err))
	}
	rel, err := Decode(data)
	if err != nil {
		if release != nil {
			release()
		}
		return nil, faults.Wrap(faults.ErrBadInput, fmt.Errorf("colstore: open %s: %w", path, err))
	}
	return &View{rel: rel, release: release, Mapped: mapped}, nil
}

// Relation returns the decoded relation. On a mapped view its numeric and
// code data alias the mapping — the relation must not be used after Close.
// Its discrete columns are the stored codes; relation.Relation.Discrete
// decodes a copy of one on the heap.
func (v *View) Relation() *relation.Relation { return v.rel }

// Close releases the underlying mapping. After Close, a mapped view's
// relation is invalid: touching its numeric columns or code vectors faults.
// Close is idempotent.
func (v *View) Close() error {
	if v.release == nil {
		return nil
	}
	rel := v.release
	v.release = nil
	return rel()
}
