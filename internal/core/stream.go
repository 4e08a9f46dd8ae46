package core

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"sync"
	"time"

	"privateclean/internal/atomicio"
	"privateclean/internal/csvio"
	"privateclean/internal/faults"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

// The chunk pipeline. A run is one loop over row windows, and the input mode
// chooses only where the windows come from:
//
//   - in memory (loadResident), the input is read once and windowed with
//     relation.NewSliceIterator — windows of the loaded relation;
//   - streaming (loadStreaming, Stream), two bounded-memory scans
//     (csvio.ProfileFile) resolve the schema, domains, sensitivities, and row
//     accounting, and a third scan (csvio.ChunkIterator) decodes the kept rows
//     window by window, never materializing the whole relation.
//
// Everything after that is shared: writeChunks reads the windows in order,
// a worker pool privatizes each window and renders it, and one
// committer makes the chunks durable in chunk order. Chunk k covers kept rows
// [k·ChunkSize, (k+1)·ChunkSize) and draws from privacy.StreamRand(seed, k);
// privacy.PrivatizeWithMeta consumes randomness as a pure function of (p, row
// count) per discrete column and of the column's NaN pattern per numeric
// column, in schema order. So the released bytes, the metadata JSON, and
// every intermediate checkpoint are byte-for-byte equal across modes and
// worker counts for the same (input, params, seed, chunk size).
//
// One observable difference between the modes, by design: under the
// quarantine policy, the streaming sidecar lists rows in input order rather
// than grouped arity/syntax-then-bad_numeric (same row set).

// streamBytesPerRow is the conservative expansion factor from one CSV source
// byte to resident bytes in the streaming pipeline: decoded strings/floats,
// the rendered chunk, and the bounded ring of inflight windows. MemBudget is
// divided by (observed bytes/row × this factor) to pick a chunk size. The
// factor must not depend on Workers, or byte-identity across worker counts
// would break via differing chunk sizes.
const streamBytesPerRow = 48

// minStreamChunk and maxStreamChunk clamp the derived chunk size.
const (
	minStreamChunk = 32
	maxStreamChunk = 1 << 20
)

// chunkSizeForBudget derives the streaming chunk row count from a memory
// budget and the profiled source geometry.
func chunkSizeForBudget(budget int64, prof *csvio.Profile) int {
	if budget <= 0 || prof.Rows <= 0 {
		return DefaultChunkSize
	}
	perRow := prof.DataBytes / int64(prof.Rows)
	if perRow < 8 {
		perRow = 8
	}
	cs := budget / (perRow * streamBytesPerRow)
	if cs < minStreamChunk {
		return minStreamChunk
	}
	if cs > maxStreamChunk {
		return maxStreamChunk
	}
	return int(cs)
}

// readInput runs one read of the input — the in-memory load or the streaming
// profile — under the job's row policy, inside a span of the given name.
// Under the quarantine policy the sidecar is written atomically (temp + fsync
// + rename): a crash mid-read cannot leave a torn sidecar, and a failed read
// leaves any pre-existing sidecar untouched instead of truncating it.
func (job *PrivatizeJob) readInput(span string, read func(csvio.Options) (*csvio.Report, error)) (*csvio.Report, error) {
	sp := job.tel.Trace.StartSpan(job.span, span, telemetry.A("path", job.In))
	defer sp.End()
	start := time.Now()
	opts := csvio.Options{ForceKinds: job.ForceKinds, OnRowError: job.OnRowError}
	var rep *csvio.Report
	var err error
	if job.OnRowError != csvio.RowErrorQuarantine {
		rep, err = read(opts)
	} else {
		err = atomicio.WriteFileKeep(job.quarantinePath(), func(w io.Writer) error {
			opts.Quarantine = w
			var rerr error
			rep, rerr = read(opts)
			return rerr
		})
	}
	if err != nil {
		sp.Set("err", err)
		return nil, err
	}
	sp.Set("rows", rep.Rows)
	job.tel.Metrics.Histogram("privateclean_csv_load_seconds",
		"Wall time of input CSV loads.", telemetry.DurationBuckets).Observe(time.Since(start).Seconds())
	return rep, nil
}

// loadResident reads the whole input once and windows the loaded relation.
func (job *PrivatizeJob) loadResident() (*privacy.ViewMeta, *csvio.Report, relation.Iterator, error) {
	var r *relation.Relation
	rep, err := job.readInput("csv_load", func(opts csvio.Options) (rep *csvio.Report, err error) {
		r, rep, err = csvio.ReadFileWithReport(job.In, opts)
		return rep, err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := job.Params.Validate(r.Schema(), true); err != nil {
		return nil, nil, nil, err
	}
	meta, err := privacy.ViewMetaFor(r, job.Params)
	if err != nil {
		return nil, nil, nil, err
	}
	return meta, rep, relation.NewSliceIterator(r, job.ChunkSize), nil
}

// loadStreaming profiles the input in two bounded-memory scans and opens the
// third, which decodes the kept rows window by window. Without a ChunkSize
// the window size is derived from MemBudget and the profiled geometry.
func (job *PrivatizeJob) loadStreaming() (*privacy.ViewMeta, *csvio.Report, relation.Iterator, error) {
	job.span.Set("stream", true)
	var prof *csvio.Profile
	rep, err := job.readInput("csv_profile", func(opts csvio.Options) (*csvio.Report, error) {
		var err error
		if prof, err = csvio.ProfileFile(job.In, opts); err != nil {
			return nil, err
		}
		return prof.Report, nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	schema, err := prof.Schema()
	if err != nil {
		return nil, nil, nil, err
	}
	if err := job.Params.Validate(schema, true); err != nil {
		return nil, nil, nil, err
	}
	if job.ChunkSize <= 0 {
		job.ChunkSize = chunkSizeForBudget(job.MemBudget, prof)
		job.tel.Log.Info("derived streaming chunk size", "chunk_size", job.ChunkSize,
			"mem_budget", job.MemBudget, "data_bytes", prof.DataBytes, "rows", prof.Rows)
	}
	job.span.Set("chunk_size", job.ChunkSize)
	meta, err := privacy.ViewMetaFromProfile(schema, prof.Rows, prof.Domains, prof.Lows, prof.Deltas, job.Params)
	if err != nil {
		return nil, nil, nil, err
	}
	it, err := csvio.NewChunkIterator(job.In, prof, job.ChunkSize)
	if err != nil {
		return nil, nil, nil, err
	}
	return meta, rep, it, nil
}

// nextWindow pulls the next window and checks it covers exactly the rows the
// chunk contract assigns — a mismatch means the input changed between the
// scan that counted the rows and this one.
func (job *PrivatizeJob) nextWindow(it relation.Iterator, chunk, rows int) (*relation.Relation, error) {
	lo, hi := chunkRange(chunk, job.ChunkSize, rows)
	win, err := it.Next()
	if err == io.EOF {
		return nil, faults.Errorf(faults.ErrBadInput,
			"core: input ended at chunk %d of a %d-row profile (file changed during the run?)", chunk, rows)
	}
	if err != nil {
		return nil, err
	}
	if win.NumRows() != hi-lo {
		return nil, faults.Errorf(faults.ErrBadInput,
			"core: chunk %d decoded %d rows, profile assigns %d (file changed during the run?)", chunk, win.NumRows(), hi-lo)
	}
	return win, nil
}

// windowWork is one window travelling from the producer to a pool worker. A
// read failure rides in err so it surfaces at the failing chunk's in-order
// commit slot.
type windowWork struct {
	chunk int
	win   *relation.Relation
	err   error
}

// renderedChunk is one chunk privatized and rendered to CSV bytes by a
// worker, waiting for its in-order durable commit.
type renderedChunk struct {
	data    []byte
	err     error
	started time.Time
}

// writeChunks privatizes and durably appends every pending chunk, advancing
// the checkpoint after each one. One producer reads the windows in order; a
// pool of workers (one worker included) privatizes each window with
// its chunk's RNG stream and renders it; this goroutine commits the chunks
// (write, sync, checkpoint, OnChunk) strictly in chunk order, so the bytes on
// disk and every intermediate checkpoint are the same at any worker count.
// The header of an empty relation is emitted as a degenerate zeroth chunk so
// the released view is never a zero-byte file.
func (job *PrivatizeJob) writeChunks(ck *checkpoint, it relation.Iterator, meta *privacy.ViewMeta, rows, chunks int) error {
	partial, err := job.openPartial(ck)
	if err != nil {
		return err
	}
	defer partial.Close()

	if rows == 0 && ck.PartialBytes == 0 {
		data, err := renderChunk(relation.New(it.Schema()), true)
		if err != nil {
			return err
		}
		if _, err := job.commitBytes(partial, data); err != nil {
			return err
		}
	}
	tel := job.tel

	first := ck.NextChunk
	// Chunks already durable from a previous run: read and discard, so the
	// iterator is positioned at the first pending chunk.
	for chunk := 0; chunk < first; chunk++ {
		if _, err := job.nextWindow(it, chunk, rows); err != nil {
			return err
		}
	}

	pending := chunks - first
	workers := min(job.workerCount(), pending)
	tel.Metrics.Gauge("privateclean_privatize_workers",
		"Effective chunk-privatizer pool size of the last privatize run.").Set(float64(workers))
	job.span.Set("workers", workers)

	// Workers park the rendered bytes in a ring of single-slot channels,
	// slot (chunk-first) mod inflight. The producer must hold a dispatch
	// token before reading a window and the committer returns the token only
	// when it drains the chunk's slot; with exactly inflight tokens, the
	// dispatched-but-undrained chunks are always inflight consecutive
	// indexes — distinct modulo inflight — so a slot can never receive a
	// later chunk before its earlier tenant is consumed, and the resident
	// windows stay bounded.
	inflight := min(workers*2, pending)
	results := make([]chan renderedChunk, inflight)
	for i := range results {
		results[i] = make(chan renderedChunk, 1)
	}
	tokens := make(chan struct{}, inflight)
	for i := 0; i < inflight; i++ {
		tokens <- struct{}{}
	}
	jobs := make(chan windowWork)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for work := range jobs {
				started := time.Now()
				data, err := job.privatizeWindow(work, meta)
				select {
				case results[(work.chunk-first)%inflight] <- renderedChunk{data: data, err: err, started: started}:
				case <-stop:
					return
				}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for chunk := first; chunk < chunks; chunk++ {
			select {
			case <-tokens:
			case <-stop:
				return
			}
			win, err := job.nextWindow(it, chunk, rows)
			select {
			case jobs <- windowWork{chunk: chunk, win: win, err: err}:
			case <-stop:
				return
			}
			if err != nil {
				return // the reader is dead; the error surfaces at this chunk's slot
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	cc := job.newCommitter(ck, partial, chunks)
	for chunk := first; chunk < chunks; chunk++ {
		rc := <-results[(chunk-first)%inflight]
		tokens <- struct{}{} // slot drained; its next tenant may be dispatched
		lo, hi := chunkRange(chunk, job.ChunkSize, rows)
		sp := tel.Trace.StartSpan(job.span, "chunk", telemetry.A("index", chunk), telemetry.A("rows", hi-lo))
		if rc.err != nil {
			sp.Set("err", rc.err)
			sp.End()
			return rc.err
		}
		if err := cc.commit(sp, chunk, hi-lo, rc.data, rc.started); err != nil {
			return err
		}
	}
	if err := partial.Close(); err != nil {
		return faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("core: closing partial view: %w", err))
	}
	return nil
}

// privatizeWindow privatizes one window with its chunk's RNG stream and
// renders it, the header first for chunk zero. A panic becomes a classified
// error at the chunk's commit slot, as Run's own recover would make it.
func (job *PrivatizeJob) privatizeWindow(work windowWork, meta *privacy.ViewMeta) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			data, err = nil, faults.Recover(r)
		}
	}()
	if work.err != nil {
		return nil, work.err
	}
	view, err := privacy.PrivatizeWithMeta(privacy.StreamRand(job.Seed, work.chunk), work.win, meta)
	if err != nil {
		return nil, err
	}
	return renderChunk(view, work.chunk == 0)
}

// renderChunk renders every row of a privatized window to CSV bytes, the
// header first when withHeader. The chunk is staged in memory so a short
// write never interleaves a torn record into the accounting.
func renderChunk(win *relation.Relation, withHeader bool) ([]byte, error) {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	err := csvio.WriteRows(cw, win, withHeader)
	if err == nil {
		cw.Flush()
		err = cw.Error()
	}
	if err != nil {
		return nil, faults.Wrap(faults.ErrPartialWrite, err)
	}
	return buf.Bytes(), nil
}
