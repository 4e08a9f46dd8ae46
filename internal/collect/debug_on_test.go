//go:build pcdebug

package collect

import (
	"context"
	"path/filepath"
	"testing"
)

// debugChecks reports a build whose folds from retained columns re-read
// their segments (debug_on.go).
const debugChecks = true

// TestCheckRetained: the pcdebug assertion accepts a sealed segment's own
// retained list and names a list that differs from the records in count,
// order, ID or a column.
func TestCheckRetained(t *testing.T) {
	s := newTestService(t, t.TempDir(), nil)
	defer s.Shutdown(context.Background())
	h := s.Handler()
	for _, b := range retainBatches(t)[:3] {
		mustPost(t, h, b)
	}
	seq := s.wal.ActiveSeq()
	if _, err := s.wal.Rotate(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.wal.dir, segName(seq))
	list, ok := s.retained.list(seq)
	if !ok || len(list) != 3 {
		t.Fatalf("segment %d list: %d batches, complete %v", seq, len(list), ok)
	}
	if err := checkRetained(path, s.codec, list); err != nil {
		t.Fatal(err)
	}
	clone := func(b *batchCols) *batchCols {
		c := *b
		c.disc = [][]string{append([]string(nil), b.disc[0]...)}
		c.num = [][]float64{append([]float64(nil), b.num[0]...)}
		return &c
	}
	for name, mutate := range map[string]func([]*batchCols) []*batchCols{
		"count": func(l []*batchCols) []*batchCols { return l[:2] },
		"order": func(l []*batchCols) []*batchCols { return []*batchCols{l[1], l[0], l[2]} },
		"id": func(l []*batchCols) []*batchCols {
			c := clone(l[1])
			c.ID = "other"
			return []*batchCols{l[0], c, l[2]}
		},
		"discrete": func(l []*batchCols) []*batchCols {
			c := clone(l[2])
			c.disc[0][1] = "other"
			return []*batchCols{l[0], l[1], c}
		},
		"numeric": func(l []*batchCols) []*batchCols {
			c := clone(l[0])
			c.num[0][0]++
			return []*batchCols{c, l[1], l[2]}
		},
	} {
		if err := checkRetained(path, s.codec, mutate(list)); err == nil {
			t.Errorf("%s: a differing list passed the check", name)
		}
	}
	s.retained.release(seq)
}
