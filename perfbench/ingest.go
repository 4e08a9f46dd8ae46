package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"privateclean/internal/collect"
	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
)

// Ingest workload sizes.
const (
	ingestBatch      = 256   // reports per POST /v1/report
	ingestRate       = 300.0 // nominal acked batches per second
	ingestWindow     = 64    // acked batches between GET /v1/stats reads
	ingestSeeded     = 512   // batches folded into the seeded checkpoint
	ingestUnfolded   = 64    // acked-but-unfolded batches left in the seeded WAL
	ingestClients    = 2
	ingestSetups     = 9
	ingestRecordPool = 65536 // client records, randomized once into 256 distinct batches
)

// ingestInputs are the pre-randomized batches and the seeded collection
// directory every set-up restarts from.
type ingestInputs struct {
	meta     *privacy.ViewMeta
	schema   relation.Schema
	batches  []reportBatch // seeded, then unfolded, then the timed sequence
	template string
}

// timed returns the batches the measured phase posts.
func (in *ingestInputs) timed() []reportBatch { return in.batches[ingestSeeded+ingestUnfolded:] }

func prepareIngest(o opts, timed int) (*ingestInputs, error) {
	rel, err := dataset(o.seed, ingestRecordPool)
	if err != nil {
		return nil, err
	}
	meta, err := privacy.ViewMetaFor(rel, releaseParams(rel.Schema()))
	if err != nil {
		return nil, err
	}
	recs, err := records(rel)
	if err != nil {
		return nil, err
	}
	in := &ingestInputs{meta: meta, template: filepath.Join(o.dir, "seeded")}
	if in.schema, err = collect.SchemaFor(meta); err != nil {
		return nil, err
	}
	if in.batches, err = reportBatches(o.seed, recs, meta, ingestSeeded+ingestUnfolded+timed, ingestBatch); err != nil {
		return nil, err
	}
	return in, in.seed()
}

// seed builds the collection directory a restart recovers: a checkpoint
// holding the first ingestSeeded batches and a WAL holding the next
// ingestUnfolded, acknowledged but not yet folded. The request bodies are
// already the canonical WAL payloads (collect.Batch without a trace ID).
func (in *ingestInputs) seed() error {
	w, err := collect.Open(filepath.Join(in.template, collect.WALDirName), collect.Options{Policy: collect.SyncNever})
	if err != nil {
		return err
	}
	defer w.Close()
	for _, b := range in.batches[:ingestSeeded] {
		if _, err := w.Append(b.body); err != nil {
			return err
		}
	}
	if _, err := w.Rotate(); err != nil {
		return err
	}
	store, err := collect.OpenStore(filepath.Join(in.template, collect.StoreFileName), in.schema, privacy.MechanismFingerprint(in.meta))
	if err != nil {
		return err
	}
	segs, err := w.Sealed()
	if err != nil {
		return err
	}
	for _, seg := range segs {
		payloads, err := collect.ReadSegment(seg.Path)
		if err != nil {
			return err
		}
		if _, err := store.Fold(seg.Seq, payloads); err != nil {
			return err
		}
		if err := os.Remove(seg.Path); err != nil {
			return err
		}
	}
	for _, b := range in.batches[ingestSeeded : ingestSeeded+ingestUnfolded] {
		if _, err := w.Append(b.body); err != nil {
			return err
		}
	}
	return w.Close()
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		from, err := os.Open(path)
		if err != nil {
			return err
		}
		defer from.Close()
		to, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(to, from); err != nil {
			to.Close()
			return err
		}
		return to.Close()
	})
}

// restart copies the seeded directory to dir (not timed) and times the
// collector's start-up over it: WAL recovery, checkpoint load, and the
// replay fold of the unfolded batches.
func (in *ingestInputs) restart(dir string) (*collect.Service, time.Duration, error) {
	if err := copyTree(in.template, dir); err != nil {
		return nil, 0, err
	}
	runtime.GC() // every restart begins from a collected heap
	t0 := time.Now()
	svc, err := collect.New(collect.Config{Dir: dir, Meta: in.meta})
	return svc, time.Since(t0), err
}

// shutdown drains a collector outside any timed phase.
func shutdown(svc *collect.Service) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return svc.Shutdown(ctx)
}

// ingestLoop posts batches with ingestClients clients and, after every
// ingestWindow acknowledgements, has the client that crossed the boundary
// read /v1/stats. after, when set, runs on the client's goroutine after each
// acknowledged post (the traced run's replay) and after each stats read
// (window >= 0 then).
type ingestLoop struct {
	h       *host
	batches []reportBatch
	acked   []bool
	lat     [][]time.Duration
	stats   [][]time.Duration
	errs    [][]string
	after   func(c, i int, d time.Duration, window int)
}

func newIngestLoop(h *host, batches []reportBatch) *ingestLoop {
	return &ingestLoop{
		h:       h,
		batches: batches,
		acked:   make([]bool, len(batches)),
		lat:     make([][]time.Duration, ingestClients),
		stats:   make([][]time.Duration, ingestClients),
		errs:    make([][]string, ingestClients),
	}
}

func (l *ingestLoop) run() time.Duration {
	var acks atomic.Int64
	return closedLoop(ingestClients, len(l.batches), func(c, i int) {
		status, body, d, err := l.h.do(http.MethodPost, "/v1/report", l.batches[i].body)
		if err == nil {
			err = checkAck(status, body)
		}
		if err != nil {
			l.errs[c] = append(l.errs[c], fmt.Sprintf("batch %d: %v", i, err))
			return
		}
		l.acked[i] = true
		l.lat[c] = append(l.lat[c], d)
		if l.after != nil {
			l.after(c, i, d, -1)
		}
		if k := acks.Add(1); k%ingestWindow == 0 {
			status, body, d, err := l.h.do(http.MethodGet, "/v1/stats", nil)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("HTTP %d: %s", status, trimErr(body))
			}
			if err != nil {
				l.errs[c] = append(l.errs[c], fmt.Sprintf("stats read: %v", err))
				return
			}
			l.stats[c] = append(l.stats[c], d)
			if l.after != nil {
				l.after(c, i, d, int(k/ingestWindow)-1)
			}
		}
	})
}

// collectInto folds the loop's samples and failures into st.
func (l *ingestLoop) collectInto(st *runStats) {
	st.attempted += len(l.batches)
	for c := 0; c < ingestClients; c++ {
		st.lat = append(st.lat, l.lat[c]...)
		for _, e := range l.errs[c] {
			st.fail("%s", e)
		}
	}
}

// checkAck verifies a /v1/report acknowledgement of a new batch.
func checkAck(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", status, trimErr(body))
	}
	var ack struct {
		Reports   int  `json:"reports"`
		Duplicate bool `json:"duplicate"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return err
	}
	if ack.Reports != ingestBatch || ack.Duplicate {
		return fmt.Errorf("ack for %d reports (duplicate=%v)", ack.Reports, ack.Duplicate)
	}
	return nil
}

// checkCollected reads /v1/stats and compares its row count and every
// per-value discrete count with the reports acknowledged: the seeded
// batches plus every acked timed batch.
func (in *ingestInputs) checkCollected(h *host, acked []bool) error {
	status, body, _, err := h.do(http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("final stats read: HTTP %d: %s", status, trimErr(body))
	}
	var got estimator.Statistics
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	want := make(map[string]map[string]int)
	rows := 0
	count := func(b reportBatch) {
		for _, rep := range b.reports {
			rows++
			for attr, v := range rep.Discrete {
				if want[attr] == nil {
					want[attr] = make(map[string]int)
				}
				want[attr][v]++
			}
		}
	}
	for _, b := range in.batches[:ingestSeeded+ingestUnfolded] {
		count(b)
	}
	for i, b := range in.timed() {
		if acked[i] {
			count(b)
		}
	}
	if got.Rows != rows {
		return fmt.Errorf("collected %d rows, acked %d reports", got.Rows, rows)
	}
	for attr, vals := range want {
		if len(got.Discrete[attr]) != len(vals) {
			return fmt.Errorf("attribute %s: %d collected values, %d reported", attr, len(got.Discrete[attr]), len(vals))
		}
		for v, n := range vals {
			if vs := got.Discrete[attr][v]; vs == nil || vs.Count != n {
				return fmt.Errorf("attribute %s value %q: collected count differs from %d reported", attr, v, n)
			}
		}
	}
	return nil
}

func runIngest(o opts) (*runStats, error) {
	n := o.ops(ingestRate, 1000)
	in, err := prepareIngest(o, n)
	if err != nil {
		return nil, err
	}
	h, err := startHost()
	if err != nil {
		return nil, err
	}
	defer h.close()
	st := &runStats{}
	var svc *collect.Service
	for k := 0; k < ingestSetups; k++ {
		next, d, err := in.restart(filepath.Join(o.dir, fmt.Sprintf("collect-%d", k)))
		if err != nil {
			return nil, err
		}
		st.setups = append(st.setups, d)
		if svc != nil {
			if err := shutdown(svc); err != nil {
				return nil, err
			}
		}
		svc = next
	}
	h.set(svc.Handler())

	loop := newIngestLoop(h, in.timed())
	mark := memMark()
	st.wall = loop.run()
	st.allocBytes = memMark() - mark
	loop.collectInto(st)
	if err := in.checkCollected(h, loop.acked); err != nil {
		st.fail("ingest: %v", err)
	}
	in.batches, loop.batches = nil, nil
	st.liveHeap = liveHeap()
	return st, shutdown(svc)
}
