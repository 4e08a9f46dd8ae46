package collect

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"privateclean/internal/estimator"
	"privateclean/internal/faults"
)

// e2eBatches is the deterministic workload every crash scenario replays: the
// same seed produces the same client-side randomized reports, so two runs
// that both end up exactly-once must produce byte-identical statistics.
func e2eBatches(t *testing.T) []Batch {
	t.Helper()
	return makeBatches(t, collectMeta(), 42, 6, 8)
}

// baselineStats runs the uninterrupted path: one service, every batch posted
// once, stats read, clean shutdown.
func baselineStats(t *testing.T) []byte {
	t.Helper()
	s := newTestService(t, t.TempDir(), nil)
	h := s.Handler()
	for _, b := range e2eBatches(t) {
		mustPost(t, h, b)
	}
	stats := getStats(t, h)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	return stats
}

// walPath returns the active segment's path for a service rooted at dir.
func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, WALDirName, segName(seq))
}

// TestE2ECrashMatrix is the acceptance property: kill -9 at every injected
// point, restart, have the client retry every batch (it cannot know which
// acks were durable), and the final statistics must be byte-identical to an
// uninterrupted run's.
func TestE2ECrashMatrix(t *testing.T) {
	baseline := baselineStats(t)
	batches := e2eBatches(t)
	const crashAfter = 3 // batches acknowledged before the crash

	// injure runs after the first service was kill -9'd (abort) and may
	// mangle the on-disk state the way the named crash would.
	scenarios := []struct {
		name   string
		injure func(t *testing.T, dir string, activeSeq uint64)
	}{
		{"kill9-clean-tail", func(t *testing.T, dir string, seq uint64) {}},
		{"torn-append-garbage-tail", func(t *testing.T, dir string, seq uint64) {
			appendBytes(t, walPath(dir, seq), []byte{0xde, 0xad, 0xbe})
		}},
		{"torn-append-truncated-record", func(t *testing.T, dir string, seq uint64) {
			path := walPath(dir, seq)
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			// Cut into the last record's payload: a write that half-arrived.
			if err := os.Truncate(path, info.Size()-5); err != nil {
				t.Fatal(err)
			}
		}},
		{"torn-append-bad-crc-tail", func(t *testing.T, dir string, seq uint64) {
			// A full-length tail record whose checksum does not match — the
			// header landed, the payload got mangled mid-write.
			payload := []byte(`{"batch_id":"never-acked","mechanism":"x","reports":[]}`)
			buf := make([]byte, recordHeaderSize+len(payload))
			binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
			binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload)^1)
			copy(buf[recordHeaderSize:], payload)
			appendBytes(t, walPath(dir, seq), buf)
		}},
		{"crash-mid-rotation", func(t *testing.T, dir string, seq uint64) {
			// The next segment file was created but nothing else happened.
			f, err := os.OpenFile(walPath(dir, seq+1), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
		}},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			s1 := newTestService(t, dir, nil)
			h1 := s1.Handler()
			for _, b := range batches[:crashAfter] {
				mustPost(t, h1, b)
			}
			seq := s1.wal.ActiveSeq()
			s1.abort() // kill -9
			sc.injure(t, dir, seq)

			s2 := newTestService(t, dir, nil) // recovery + replay
			h2 := s2.Handler()
			for _, b := range batches { // client retries everything
				mustPost(t, h2, b)
			}
			got := getStats(t, h2)
			if !bytes.Equal(got, baseline) {
				t.Fatalf("recovered statistics differ from uninterrupted run\ngot:\n%s\nwant:\n%s", got, baseline)
			}
			if err := s2.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestE2ECrashMidCompaction covers the window between the checkpoint write
// and the segment delete: the segment reappears on restart but its seq is at
// or below the store watermark, so it is deleted without double-folding.
func TestE2ECrashMidCompaction(t *testing.T) {
	baseline := baselineStats(t)
	batches := e2eBatches(t)
	dir := t.TempDir()

	s1 := newTestService(t, dir, nil)
	h1 := s1.Handler()
	for _, b := range batches[:4] {
		mustPost(t, h1, b)
	}
	// Snapshot the active segment before compaction folds and deletes it.
	seq := s1.wal.ActiveSeq()
	segBytes, err := os.ReadFile(walPath(dir, seq))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Compact(); err != nil {
		t.Fatal(err)
	}
	if s1.store.AppliedSeq() < seq {
		t.Fatalf("compaction did not advance the watermark past %d", seq)
	}
	// Undo the delete: the crash happened after the checkpoint fsync'd but
	// before os.Remove ran.
	if err := os.WriteFile(walPath(dir, seq), segBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	s1.abort()

	s2 := newTestService(t, dir, nil)
	h2 := s2.Handler()
	for _, b := range batches {
		mustPost(t, h2, b)
	}
	got := getStats(t, h2)
	if !bytes.Equal(got, baseline) {
		t.Fatalf("post-compaction-crash statistics differ from uninterrupted run\ngot:\n%s\nwant:\n%s", got, baseline)
	}
	// The resurrected segment must be gone, not refolded.
	if _, err := os.Stat(walPath(dir, seq)); !os.IsNotExist(err) {
		t.Fatalf("stale segment %d survived recovery compaction (err %v)", seq, err)
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestE2EDiskFullRetry: a full disk turns acks into 503 + Retry-After; once
// space frees, the client's retries land and nothing is double-counted.
func TestE2EDiskFullRetry(t *testing.T) {
	baseline := baselineStats(t)
	batches := e2eBatches(t)
	dir := t.TempDir()

	failing := false
	s := newTestService(t, dir, func(c *Config) {
		c.walTap = func(dst io.Writer) io.Writer {
			if failing {
				return &faults.FailingWriter{W: dst, FailAt: 4, Short: true, Err: newENOSPC()}
			}
			return dst
		}
	})
	h := s.Handler()
	for _, b := range batches[:2] {
		mustPost(t, h, b)
	}
	failing = true
	rec := postBatch(t, h, batches[2])
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("append into full disk = %d, want 503 (%s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 on append failure must carry Retry-After")
	}
	failing = false
	for _, b := range batches[2:] { // retry the failed one, then the rest
		mustPost(t, h, b)
	}
	got := getStats(t, h)
	if !bytes.Equal(got, baseline) {
		t.Fatalf("post-ENOSPC statistics differ from uninterrupted run\ngot:\n%s\nwant:\n%s", got, baseline)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestE2ERestartWithoutCrash: a clean shutdown and restart serves the same
// statistics from the checkpoint alone (the WAL is fully folded on drain).
func TestE2ERestartWithoutCrash(t *testing.T) {
	baseline := baselineStats(t)
	batches := e2eBatches(t)
	dir := t.TempDir()

	s1 := newTestService(t, dir, nil)
	h1 := s1.Handler()
	for _, b := range batches {
		mustPost(t, h1, b)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := newTestService(t, dir, nil)
	got := getStats(t, s2.Handler())
	if !bytes.Equal(got, baseline) {
		t.Fatalf("restarted statistics differ from uninterrupted run\ngot:\n%s\nwant:\n%s", got, baseline)
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestE2EStatsMatchDirectEstimates closes the loop with the estimator: the
// collected statistics must yield the same corrected count/sum/avg as a
// direct collector over the same reports (the batch-privatized path).
func TestE2EStatsMatchDirectEstimates(t *testing.T) {
	var collected estimator.Statistics
	if err := json.Unmarshal(baselineStats(t), &collected); err != nil {
		t.Fatal(err)
	}
	schema, err := SchemaFor(collectMeta())
	if err != nil {
		t.Fatal(err)
	}
	coll := estimator.NewCollector()
	for _, b := range e2eBatches(t) {
		win := refWindow(t, schema, b)
		if err := coll.Add(win); err != nil {
			t.Fatal(err)
		}
	}
	direct := coll.Statistics()

	meta := collectMeta()
	meta.Rows = collected.Rows
	est := &estimator.Estimator{Meta: meta}
	for _, v := range []string{"CS", "EE", "ME"} {
		cc, err := est.CountStats(&collected, estimator.Eq("major", v))
		if err != nil {
			t.Fatal(err)
		}
		dc, err := est.CountStats(direct, estimator.Eq("major", v))
		if err != nil {
			t.Fatal(err)
		}
		if cc.Value != dc.Value || cc.CI != dc.CI {
			t.Fatalf("count(major=%s): collected %+v, direct %+v", v, cc, dc)
		}
		cs, err := est.AvgStats(&collected, "score", estimator.Eq("major", v))
		if err != nil {
			t.Fatal(err)
		}
		ds, err := est.AvgStats(direct, "score", estimator.Eq("major", v))
		if err != nil {
			t.Fatal(err)
		}
		if cs.Value != ds.Value || cs.CI != ds.CI {
			t.Fatalf("avg(score | major=%s): collected %+v, direct %+v", v, cs, ds)
		}
	}
	ct, err := est.TotalSumStats(&collected, "score")
	if err != nil {
		t.Fatal(err)
	}
	dt, err := est.TotalSumStats(direct, "score")
	if err != nil {
		t.Fatal(err)
	}
	if ct.Value != dt.Value {
		t.Fatalf("total sum: collected %v, direct %v", ct.Value, dt.Value)
	}
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// newENOSPC fabricates a "no space left on device"-shaped error for the
// disk-full scenario without needing a real full filesystem.
func newENOSPC() error {
	return &os.PathError{Op: "write", Path: "wal", Err: errENOSPC{}}
}

type errENOSPC struct{}

func (errENOSPC) Error() string { return "no space left on device" }
