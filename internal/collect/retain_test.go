package collect

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

// retainBatches are batches with a literal "NULL" value, absent discrete
// and numeric attributes, an empty report and, on every other batch, a
// trace ID.
func retainBatches(t *testing.T) []Batch {
	t.Helper()
	batches := makeBatches(t, collectMeta(), 51, 8, 6)
	batches[2].Reports[0].Discrete = map[string]string{"major": relation.Null}
	batches[3].Reports[1].Discrete = nil
	batches[3].Reports[2].Numeric = nil
	batches[4].Reports[0] = privacy.Report{}
	for i := 0; i < len(batches); i += 2 {
		batches[i].TraceID = telemetry.NewTraceID()
	}
	return batches
}

// copyDir copies the regular files under src to dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// foldSources counts the tracer's fold spans by their source attribute,
// keyed "memory", "wal", and "memory err" / "wal err" for failed folds.
func foldSources(tel *telemetry.Set) map[string]int {
	n := map[string]int{}
	for _, sp := range rootsNamed(tel, "fold") {
		var source, failed string
		for _, a := range sp.Attrs {
			switch a.Key {
			case "source":
				source, _ = a.Value.(string)
			case "err":
				failed = " err"
			}
		}
		n[source+failed]++
	}
	return n
}

// TestRetainedFoldMatchesRestart: a collector that folds its acks'
// retained columns and a collector restarted on a copy of its WAL, which
// folds every record from the WAL, write byte-identical store.json and
// /v1/stats. The batches include a retried ID within one window, a literal
// "NULL", absent attributes and trace IDs. It holds with every segment
// folding from memory; with a segment threshold small enough that the WAL
// rotates by size mid-run, where the first segment, sealed by size, folds
// from memory and the two that started while its list was held fold from
// the WAL; and with a fold from memory that fails and is retried from the
// WAL. Retained bytes stay under twice the threshold plus one payload.
func TestRetainedFoldMatchesRestart(t *testing.T) {
	for _, tc := range []struct {
		name     string
		segBytes int64
		failFold bool
		want     map[string]int // fold spans by source
	}{
		{"memory", 0, false, map[string]int{"memory": 1}},
		{"retention-refused", 1500, false, map[string]int{"memory": 1, "wal": 2}},
		{"fold-fails", 0, true, map[string]int{"memory err": 1, "wal": 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, copied := t.TempDir(), t.TempDir()
			tel := newTracedTel()
			s := newTestService(t, dir, func(c *Config) { c.Tel = tel; c.SegmentBytes = tc.segBytes })
			h := s.Handler()
			batches := retainBatches(t)
			// The bound: under twice the segment threshold plus the
			// largest payload, each payload being the batch's json.Marshal
			// rendering.
			bound := 2 * s.wal.opts.SegmentBytes
			for _, b := range batches {
				payload, err := json.Marshal(b)
				if err != nil {
					t.Fatal(err)
				}
				bound = max(bound, 2*s.wal.opts.SegmentBytes+int64(len(payload)))
			}
			checkBound := func() {
				t.Helper()
				if got := s.retained.heldBytes(); got < 0 || got >= bound {
					t.Fatalf("retained bytes %d outside [0, %d)", got, bound)
				}
			}
			for i, b := range batches {
				mustPost(t, h, b)
				checkBound()
				if i == 2 {
					mustPost(t, h, batches[1]) // retried within the window
					checkBound()
				}
			}
			copyDir(t, dir, copied)
			if tc.failFold {
				failed := false
				s.store.foldHook = func() error {
					if !failed {
						failed = true
						return errors.New("injected fold failure")
					}
					return nil
				}
				if _, err := s.Compact(); err == nil {
					t.Fatal("Compact succeeded through a failing fold")
				}
				checkBound()
			}
			live := getStats(t, h)
			if got := s.retained.heldBytes(); got != 0 {
				t.Fatalf("retained bytes %d after every segment folded", got)
			}
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			sources := foldSources(tel)
			if !maps.Equal(sources, tc.want) {
				t.Fatalf("fold sources %v, want %v", sources, tc.want)
			}

			tel2 := newTracedTel()
			s2 := newTestService(t, copied, func(c *Config) { c.Tel = tel2; c.SegmentBytes = tc.segBytes })
			restarted := getStats(t, s2.Handler())
			if err := s2.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			if sources := foldSources(tel2); sources["memory"] > 0 || sources["wal"] == 0 {
				t.Fatalf("restarted fold sources %v, want the WAL only", sources)
			}
			if !bytes.Equal(live, restarted) {
				t.Fatalf("/v1/stats differs:\nlive:\n%s\nrestarted:\n%s", live, restarted)
			}
			ck := func(d string) []byte {
				data, err := os.ReadFile(filepath.Join(d, StoreFileName))
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			if a, b := ck(dir), ck(copied); !bytes.Equal(a, b) {
				t.Fatalf("store.json differs:\nlive:\n%s\nrestarted:\n%s", a, b)
			}
		})
	}
}

// TestRetentionBound: a segment starts a list only while the lists held
// total under the bound, a list then takes every record of its segment,
// and a segment that started without a list keeps none of its records.
func TestRetentionBound(t *testing.T) {
	r := newRetention(100)
	b := new(batchCols)
	held := func(seq uint64, n int, bytes int64) {
		t.Helper()
		if got, ok := r.list(seq); !ok || len(got) != n || r.heldBytes() != bytes {
			t.Fatalf("segment %d: %d batches (complete %v), %d bytes held; want %d, true, %d",
				seq, len(got), ok, r.heldBytes(), n, bytes)
		}
	}
	r.add(1, b, 60)
	r.add(1, b, 30)
	r.add(1, b, 20) // the record that crosses the bound stays on the list
	held(1, 3, 110)
	r.release(1)
	r.add(2, b, 70)
	r.add(3, b, 40) // 70 held < 100: segment 3 starts a list
	held(3, 1, 110)
	r.add(4, b, 10) // 110 held: segment 4 starts without one
	r.release(2)
	r.add(4, b, 10) // and keeps nothing, though room has been freed
	if _, ok := r.list(4); ok || r.heldBytes() != 40 {
		t.Fatalf("segment 4 reads as complete (%d bytes held)", r.heldBytes())
	}
	r.release(3)
	r.release(4)
	if len(r.segs) != 0 || r.heldBytes() != 0 {
		t.Fatalf("release left %d lists, %d bytes", len(r.segs), r.heldBytes())
	}
	if _, ok := r.list(5); ok {
		t.Fatal("a segment no ack registered reads as complete")
	}
}
