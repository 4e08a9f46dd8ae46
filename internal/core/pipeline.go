package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"privateclean/internal/atomicio"
	"privateclean/internal/csvio"
	"privateclean/internal/faults"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

// The hardened provider-side pipeline: privatization runs in row chunks with
// a resumable checkpoint, so a crash mid-release neither leaves a
// half-written private view on disk nor forces a re-randomization of rows
// that already escaped the provider — re-running GRR over the same records
// would double-spend the privacy budget (each release composes under
// Theorem 1).
//
// Layout on disk while a job is in flight:
//
//	<out>.partial  — the private view rows emitted so far (header + chunks)
//	<out>.ckpt     — JSON checkpoint: next chunk, RNG stream position,
//	                 partial byte offset, running epsilon accounting, and
//	                 fingerprints of the input and parameters
//
// On completion the partial file is atomically renamed to <out>, the
// metadata is atomically written, and the checkpoint is removed. Every
// crash window in between is covered: re-running with Resume either picks
// up after the last durable chunk or just finishes the rename/metadata
// steps. Chunk randomness comes from per-chunk derived RNG streams, so a
// resumed run produces byte-identical output to an uninterrupted one.

// checkpointVersion guards the checkpoint schema; a reader refuses any
// other version rather than guessing. Version 2 added the sampler tag
// (privacy.SamplerTag), which resume checks like a fingerprint.
const checkpointVersion = 2

// DefaultChunkSize is the number of rows privatized per chunk when the job
// does not choose one.
const DefaultChunkSize = 512

// PrivatizeJob configures one chunked, checkpointed privatization run.
type PrivatizeJob struct {
	// In is the input CSV path; Out receives the private view. Metadata
	// goes to MetaPath. All three are required.
	In, Out, MetaPath string
	// CheckpointPath overrides the default Out + ".ckpt".
	CheckpointPath string
	// Params are the GRR parameters, validated strictly before any
	// randomness is spent (p in (0,1], finite b > 0 — see Params.Validate).
	Params privacy.Params
	// Seed feeds the per-chunk RNG stream derivation.
	Seed int64
	// ChunkSize is the number of rows per chunk; <= 0 derives it from
	// MemBudget, or uses DefaultChunkSize without one.
	ChunkSize int
	// Workers is the number of chunks privatized concurrently (<= 0 means
	// runtime.GOMAXPROCS(0)). Chunks draw from independent per-chunk RNG
	// streams and are committed (written, synced, checkpointed) strictly in
	// chunk order, so the released bytes, metadata, and every intermediate
	// checkpoint are identical for any worker count.
	Workers int
	// MemBudget (bytes) sizes chunks when ChunkSize is unset: the chunk row
	// count is derived from the input's profiled bytes per row so the
	// decode/privatize/render pipeline's working set stays around this
	// budget. It is a sizing target, not a hard cap, and is ignored when
	// ChunkSize is set.
	MemBudget int64
	// ForceKinds forces column kinds on load, as in csvio.Options.
	ForceKinds map[string]relation.Kind
	// OnRowError selects the per-row policy for malformed input rows.
	OnRowError csvio.RowErrorPolicy
	// QuarantinePath receives malformed rows under the quarantine policy;
	// defaults to In + csvio.QuarantineFileSuffix.
	QuarantinePath string
	// Resume continues from an existing checkpoint instead of starting
	// over. Without a checkpoint on disk, Resume is a usage error.
	Resume bool
	// OnChunk, if set, runs after each chunk is durable (rows flushed,
	// checkpoint written). Returning an error aborts the run at a clean
	// chunk boundary; the checkpoint stays behind for a later Resume.
	OnChunk func(done, total int) error
	// Tel supplies the telemetry sinks (logger, metrics, spans); nil falls
	// back to telemetry.Default().
	Tel *telemetry.Set
	// LedgerPath, when non-empty, appends this run's ε spend to the budget
	// ledger at that path and reports the cumulative spend for the input.
	LedgerPath string
	// Now supplies ledger timestamps; nil means time.Now. Tests pin it.
	Now func() time.Time

	// tapOutput wraps the partial-file writer; the fault-injection tests
	// use it to land short writes exactly where the kernel could.
	tapOutput func(io.Writer) io.Writer

	// per-run instrumentation state, reset at the top of Run.
	tel        *telemetry.Set
	span       *telemetry.Span
	chunkStats []ChunkStat
}

// ChunkStat is the per-chunk accounting a run reports: which rows the chunk
// covered and how long privatize+flush+checkpoint took.
type ChunkStat struct {
	Chunk    int
	Rows     int
	Duration time.Duration
}

// PrivatizeResult reports a completed run.
type PrivatizeResult struct {
	// Meta is the released view's mechanism metadata.
	Meta *privacy.ViewMeta
	// Report is the input-side row accounting (skipped/quarantined rows).
	Report *csvio.Report
	// Rows is the number of released rows, Chunks the number of chunks the
	// run was split into, and ResumedFrom the chunk the run restarted at
	// (0 for a fresh run).
	Rows, Chunks, ResumedFrom int
	// Skipped and Quarantined mirror the input-side Report counters.
	Skipped, Quarantined int
	// Wall is the end-to-end wall time of the run; ChunkStats carries the
	// per-chunk timing and row counts for the chunks this run privatized.
	Wall       time.Duration
	ChunkStats []ChunkStat
	// EpsilonComposed is the Theorem 1 composition Σ ε_i of the release.
	// CumulativeEpsilon is the total spend recorded against this input in
	// the budget ledger (equal to EpsilonComposed when no ledger is
	// configured); Ledger is the appended entry, nil without a ledger.
	EpsilonComposed   float64
	CumulativeEpsilon float64
	Ledger            *telemetry.LedgerEntry
}

// checkpoint is the on-disk resume state. Fingerprints pin the checkpoint
// to one (input, parameters, seed, chunking) tuple so a resume can never
// silently mix two different releases.
type checkpoint struct {
	Version   int    `json:"version"`
	Mechanism string `json:"mechanism"`
	InputSHA  string `json:"input_sha256"`
	ParamsSHA string `json:"params_sha256"`
	Seed      int64  `json:"seed"`
	ChunkSize int    `json:"chunk_size"`
	Rows      int    `json:"rows"`

	// NextChunk is the first chunk not yet durable; RNGStream is the
	// derived stream seed that chunk will consume (privacy.StreamSeed: chunks
	// are independent streams, so a resume regenerates chunk k without
	// replaying chunks 0..k-1).
	NextChunk int    `json:"next_chunk"`
	RNGStream uint64 `json:"rng_stream"`
	// PartialBytes is the byte length of the partial output covering the
	// durable chunks; anything beyond it is a torn chunk write and is
	// truncated away on resume.
	PartialBytes int64 `json:"partial_bytes"`

	// Running epsilon accounting: every released row spends the full
	// per-record epsilon (Theorem 1 composes across attributes, and local
	// DP composes across releases of the same record — which is exactly
	// why resume must not re-randomize emitted rows).
	EpsilonPerRecord float64 `json:"epsilon_per_record"`
	RowsEmitted      int     `json:"rows_emitted"`
}

// partialPath and checkpointPath name the in-flight artifacts.
func (job *PrivatizeJob) partialPath() string { return job.Out + ".partial" }

func (job *PrivatizeJob) checkpointPath() string {
	if job.CheckpointPath != "" {
		return job.CheckpointPath
	}
	return job.Out + ".ckpt"
}

func (job *PrivatizeJob) quarantinePath() string {
	if job.QuarantinePath != "" {
		return job.QuarantinePath
	}
	return job.In + csvio.QuarantineFileSuffix
}

// fingerprintFile hashes a file's bytes.
func fingerprintFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", faults.Wrap(faults.ErrBadInput, fmt.Errorf("core: %w", err))
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", faults.Wrap(faults.ErrBadInput, fmt.Errorf("core: %w", err))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fingerprintParams hashes the mechanism parameters in a stable order. The
// mechanism name is appended only when it selects a non-default mechanism,
// so checkpoints taken by builds that predate mechanism names (always GRR,
// no component) still resume under this build.
func fingerprintParams(params privacy.Params) string {
	h := sha256.New()
	for _, m := range []map[string]float64{params.P, params.B} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%v;", k, m[k])
		}
		io.WriteString(h, "|")
	}
	if name := params.Mechanism; name != "" && name != privacy.MechGRR {
		fmt.Fprintf(h, "mechanism=%s;|", name)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Run executes the job. See the package comment on pipeline layout; every
// failure is classified under the faults taxonomy, and no failure mode
// leaves a half-written final artifact (view, metadata) on disk.
func (job *PrivatizeJob) Run() (res *PrivatizeResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, faults.Recover(r)
		}
	}()
	if job.In == "" || job.Out == "" || job.MetaPath == "" {
		return nil, faults.Errorf(faults.ErrUsage, "core: privatize job needs In, Out, and MetaPath")
	}
	if job.ChunkSize <= 0 && job.MemBudget <= 0 {
		// With a memory budget, load derives the chunk size from the
		// profiled input.
		job.ChunkSize = DefaultChunkSize
	}
	job.tel = job.Tel
	if job.tel == nil {
		job.tel = telemetry.Default()
	}
	tel := job.tel
	// The artifact paths are operator configuration, not data: telemetry may
	// show them verbatim.
	tel.Redact.Allow(job.In, job.Out, job.MetaPath, job.checkpointPath(), job.partialPath(), job.quarantinePath(), job.LedgerPath)
	start := time.Now()
	job.chunkStats = nil
	job.span = tel.Trace.StartSpan(nil, "privatize", telemetry.A("in", job.In), telemetry.A("out", job.Out), telemetry.A("chunk_size", job.ChunkSize), telemetry.A("resume", job.Resume))
	defer job.span.End()
	defer func() {
		if err != nil {
			job.span.Set("err", err)
			tel.Metrics.Counter("privateclean_privatize_failures_total",
				"Privatize runs that ended in a classified error, by fault code.",
				telemetry.L("code", telemetry.FaultCode(err))).Inc()
			tel.Log.Error("privatize failed", "in", job.In, telemetry.ErrAttr(err))
		}
	}()
	tel.Log.Info("privatize starting", "in", job.In, "out", job.Out, "chunk_size", job.ChunkSize, "resume", job.Resume)

	inputSHA, err := fingerprintFile(job.In)
	if err != nil {
		return nil, err
	}
	// No randomness is consumed before the first chunk.
	meta, report, it, err := job.load()
	if err != nil {
		return nil, err
	}
	defer it.Close()

	rows := meta.Rows
	chunks := (rows + job.ChunkSize - 1) / job.ChunkSize
	ck := job.freshCheckpoint(inputSHA, meta)
	if job.Resume {
		ckSpan := tel.Trace.StartSpan(job.span, "checkpoint_read", telemetry.A("path", job.checkpointPath()))
		ck, err = job.readCheckpoint(ck)
		if err != nil {
			ckSpan.Set("err", err)
			ckSpan.End()
			return nil, err
		}
		ckSpan.Set("next_chunk", ck.NextChunk)
		ckSpan.End()
		tel.Log.Info("resuming from checkpoint", "path", job.checkpointPath(), "next_chunk", ck.NextChunk, "rows_emitted", ck.RowsEmitted)
	}
	resumedFrom := ck.NextChunk

	// A resume that already has every chunk durable skips straight to
	// finalize — the partial file may even be gone if the crash hit between
	// the rename and the checkpoint removal.
	if ck.NextChunk < chunks || (ck.NextChunk == 0 && !job.Resume) {
		if err := job.writeChunks(ck, it, meta, rows, chunks); err != nil {
			return nil, err
		}
	}

	finSpan := tel.Trace.StartSpan(job.span, "finalize", telemetry.A("out", job.Out))
	if err := job.finalize(meta); err != nil {
		finSpan.Set("err", err)
		finSpan.End()
		return nil, err
	}
	finSpan.End()

	res = &PrivatizeResult{
		Meta:              meta,
		Report:            report,
		Rows:              rows,
		Chunks:            chunks,
		ResumedFrom:       resumedFrom,
		Skipped:           report.Skipped,
		Quarantined:       report.Quarantined,
		ChunkStats:        job.chunkStats,
		EpsilonComposed:   meta.TotalEpsilon(),
		CumulativeEpsilon: meta.TotalEpsilon(),
	}
	if job.LedgerPath != "" {
		if err := job.appendLedger(res, inputSHA, meta); err != nil {
			return nil, err
		}
	}
	res.Wall = time.Since(start)

	m := tel.Metrics
	m.Counter("privateclean_privatize_runs_total", "Completed privatize runs.").Inc()
	m.Counter("privateclean_rows_released_total", "Rows released into private views.").Add(float64(res.Rows))
	m.Counter("privateclean_rows_skipped_total", "Malformed input rows dropped under the skip policy.").Add(float64(res.Skipped))
	m.Counter("privateclean_rows_quarantined_total", "Malformed input rows diverted to quarantine sidecars.").Add(float64(res.Quarantined))
	m.Gauge("privateclean_epsilon_composed", "Theorem 1 composed epsilon of the last release.").Set(res.EpsilonComposed)
	m.Counter("privateclean_epsilon_spent_total", "Composed epsilon summed over distinct releases (ledger-deduplicated).").Add(res.spentEpsilon())
	m.Histogram("privateclean_privatize_seconds", "End-to-end wall time of privatize runs.", telemetry.DurationBuckets).Observe(res.Wall.Seconds())
	tel.Log.Info("privatize finished",
		"rows", res.Rows, "chunks", res.Chunks, "resumed_from", res.ResumedFrom,
		"skipped", res.Skipped, "quarantined", res.Quarantined,
		"epsilon_composed", res.EpsilonComposed, "epsilon_cumulative", res.CumulativeEpsilon,
		"wall", res.Wall)
	return res, nil
}

// freshCheckpoint is the chunk-zero checkpoint of this job over the input
// with the given fingerprint; a resume checks the on-disk one against it.
func (job *PrivatizeJob) freshCheckpoint(inputSHA string, meta *privacy.ViewMeta) *checkpoint {
	return &checkpoint{
		Version:          checkpointVersion,
		Mechanism:        privacy.SamplerTag,
		InputSHA:         inputSHA,
		ParamsSHA:        fingerprintParams(job.Params),
		Seed:             job.Seed,
		ChunkSize:        job.ChunkSize,
		Rows:             meta.Rows,
		RNGStream:        privacy.StreamSeed(job.Seed, 0),
		EpsilonPerRecord: meta.TotalEpsilon(),
	}
}

// spentEpsilon is the budget this run actually added: zero for a duplicate
// (byte-identical) re-release, the composed ε otherwise. Non-finite ε is
// reported as zero here and surfaced through the ledger's Unbounded list.
func (res *PrivatizeResult) spentEpsilon() float64 {
	if res.Ledger != nil && res.Ledger.Duplicate {
		return 0
	}
	if math.IsInf(res.EpsilonComposed, 0) || math.IsNaN(res.EpsilonComposed) {
		return 0
	}
	return res.EpsilonComposed
}

// appendLedger records the run in the ε-budget ledger and fills the result's
// cumulative-spend accounting.
func (job *PrivatizeJob) appendLedger(res *PrivatizeResult, inputSHA string, meta *privacy.ViewMeta) error {
	sp := job.tel.Trace.StartSpan(job.span, "ledger_append", telemetry.A("path", job.LedgerPath))
	defer sp.End()
	led, err := telemetry.LoadLedger(job.LedgerPath)
	if err != nil {
		sp.Set("err", err)
		return err
	}
	now := time.Now
	if job.Now != nil {
		now = job.Now
	}
	perAttr := make(map[string]float64, len(meta.Discrete)+len(meta.Numeric))
	for name, m := range meta.Discrete {
		perAttr[name] = m.Epsilon()
	}
	for name, m := range meta.Numeric {
		perAttr[name] = m.Epsilon()
	}
	entry := led.Append(telemetry.LedgerEntry{
		Time:         now().UTC().Format(time.RFC3339),
		InputSHA:     inputSHA,
		ParamsSHA:    fingerprintParams(job.Params),
		Seed:         job.Seed,
		ChunkSize:    job.ChunkSize,
		Out:          job.Out,
		Rows:         res.Rows,
		PerAttribute: perAttr,
	})
	if err := led.WriteTo(job.LedgerPath); err != nil {
		sp.Set("err", err)
		return err
	}
	res.Ledger = &entry
	res.CumulativeEpsilon = led.CumulativeFor(inputSHA)
	job.tel.Log.Info("budget ledger updated", "path", job.LedgerPath,
		"epsilon_composed", entry.Composed, "epsilon_cumulative", res.CumulativeEpsilon,
		"duplicate_release", entry.Duplicate, "entries", len(led.Entries))
	return nil
}

// chunkRange returns the row interval [lo, hi) covered by one chunk.
func chunkRange(chunk, chunkSize, rows int) (int, int) {
	lo := chunk * chunkSize
	hi := lo + chunkSize
	if hi > rows {
		hi = rows
	}
	return lo, hi
}

// workerCount resolves the effective chunk-privatizer pool size.
func (job *PrivatizeJob) workerCount() int {
	if job.Workers > 0 {
		return job.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// chunkCommitter makes rendered chunks durable and advances the checkpoint —
// the single-goroutine commit stage of writeChunks. Only the committer
// touches the partial file and the checkpoint.
type chunkCommitter struct {
	job     *PrivatizeJob
	ck      *checkpoint
	partial *os.File
	chunks  int

	chunkSeconds, chunkRows       *telemetry.Histogram
	checkpointWrites, chunksTotal *telemetry.Counter
}

func (job *PrivatizeJob) newCommitter(ck *checkpoint, partial *os.File, chunks int) *chunkCommitter {
	tel := job.tel
	return &chunkCommitter{
		job:     job,
		ck:      ck,
		partial: partial,
		chunks:  chunks,
		chunkSeconds: tel.Metrics.Histogram("privateclean_chunk_seconds",
			"Wall time to privatize, flush, and checkpoint one chunk.", telemetry.DurationBuckets),
		chunkRows: tel.Metrics.Histogram("privateclean_chunk_rows",
			"Rows privatized per chunk.", telemetry.RowBuckets),
		checkpointWrites: tel.Metrics.Counter("privateclean_checkpoint_writes_total",
			"Durable checkpoint writes."),
		chunksTotal: tel.Metrics.Counter("privateclean_chunks_total", "Chunks privatized and made durable."),
	}
}

// commit appends one rendered chunk durably, advances and persists the
// checkpoint, and runs the OnChunk callback.
func (cc *chunkCommitter) commit(sp *telemetry.Span, chunk, rows int, data []byte, started time.Time) error {
	job, ck, tel := cc.job, cc.ck, cc.job.tel
	n, err := job.commitBytes(cc.partial, data)
	if err != nil {
		sp.Set("err", err)
		sp.End()
		return err
	}
	ck.NextChunk = chunk + 1
	ck.RNGStream = privacy.StreamSeed(job.Seed, chunk+1)
	ck.PartialBytes += n
	ck.RowsEmitted += rows
	ckSp := tel.Trace.StartSpan(sp, "checkpoint_write", telemetry.A("path", job.checkpointPath()))
	err = atomicio.WriteJSON(job.checkpointPath(), ck)
	ckSp.End()
	if err != nil {
		sp.End()
		return err
	}
	cc.checkpointWrites.Inc()
	sp.End()
	d := time.Since(started)
	cc.chunkSeconds.Observe(d.Seconds())
	cc.chunkRows.Observe(float64(rows))
	job.chunkStats = append(job.chunkStats, ChunkStat{Chunk: chunk, Rows: rows, Duration: d})
	cc.chunksTotal.Inc()
	tel.Log.Debug("chunk durable", "chunk", chunk+1, "of", cc.chunks, "rows", rows, "bytes", n, "wall", d)
	if job.OnChunk != nil {
		return job.OnChunk(chunk+1, cc.chunks)
	}
	return nil
}

// openPartial opens (or creates) the partial output file positioned at the
// checkpoint's durable byte offset. A fresh run writes the CSV header and
// checkpoints it as chunk-zero state.
func (job *PrivatizeJob) openPartial(ck *checkpoint) (*os.File, error) {
	path := job.partialPath()
	if ck.NextChunk == 0 && ck.PartialBytes == 0 {
		f, err := os.Create(path)
		if err != nil {
			return nil, faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("core: partial view: %w", err))
		}
		return f, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, faults.Wrap(faults.ErrCorruptCheckpoint, fmt.Errorf("core: partial view missing for checkpoint: %w", err))
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, faults.Wrap(faults.ErrCorruptCheckpoint, fmt.Errorf("core: partial view: %w", err))
	}
	if info.Size() < ck.PartialBytes {
		f.Close()
		return nil, faults.Errorf(faults.ErrCorruptCheckpoint,
			"core: partial view is %d bytes, checkpoint covers %d", info.Size(), ck.PartialBytes)
	}
	// Bytes beyond the checkpoint are a torn chunk write: discard them.
	if torn := info.Size() - ck.PartialBytes; torn > 0 {
		sp := job.tel.Trace.StartSpan(job.span, "resume_truncate", telemetry.A("torn_bytes", torn))
		sp.End()
		job.tel.Metrics.Counter("privateclean_resume_truncated_bytes_total",
			"Torn partial-write bytes discarded on resume.").Add(float64(torn))
		job.tel.Log.Warn("discarding torn chunk bytes on resume", "path", path, "torn_bytes", torn)
	}
	if err := f.Truncate(ck.PartialBytes); err != nil {
		f.Close()
		return nil, faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("core: truncating torn chunk: %w", err))
	}
	if _, err := f.Seek(ck.PartialBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("core: %w", err))
	}
	return f, nil
}

// commitBytes appends one rendered chunk durably to the partial file.
func (job *PrivatizeJob) commitBytes(f *os.File, data []byte) (int64, error) {
	var w io.Writer = f
	if job.tapOutput != nil {
		w = job.tapOutput(f)
	}
	n, err := w.Write(data)
	if err != nil {
		return 0, faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("core: chunk write: %w", err))
	}
	if n != len(data) {
		return 0, faults.Errorf(faults.ErrPartialWrite, "core: chunk write: %d of %d bytes", n, len(data))
	}
	if err := f.Sync(); err != nil {
		return 0, faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("core: chunk sync: %w", err))
	}
	return int64(len(data)), nil
}

// readCheckpoint loads and validates the on-disk checkpoint against the
// fresh state computed for this run (fingerprints, chunking, row count).
func (job *PrivatizeJob) readCheckpoint(fresh *checkpoint) (*checkpoint, error) {
	data, err := os.ReadFile(job.checkpointPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil, faults.Errorf(faults.ErrUsage, "core: resume requested but no checkpoint at %s", job.checkpointPath())
		}
		return nil, faults.Wrap(faults.ErrCorruptCheckpoint, fmt.Errorf("core: %w", err))
	}
	ck := &checkpoint{}
	if err := json.Unmarshal(data, ck); err != nil {
		return nil, faults.Wrap(faults.ErrCorruptCheckpoint, fmt.Errorf("core: decoding checkpoint: %w", err))
	}
	switch {
	case ck.Version != checkpointVersion:
		return nil, faults.Errorf(faults.ErrCorruptCheckpoint, "core: checkpoint version %d, want %d", ck.Version, checkpointVersion)
	case ck.Mechanism != fresh.Mechanism:
		return nil, faults.Errorf(faults.ErrCorruptCheckpoint, "core: checkpoint mechanism %q, this job privatizes with %q", ck.Mechanism, fresh.Mechanism)
	case ck.InputSHA != fresh.InputSHA:
		return nil, faults.Errorf(faults.ErrCorruptCheckpoint, "core: checkpoint was taken against a different input file")
	case ck.ParamsSHA != fresh.ParamsSHA:
		return nil, faults.Errorf(faults.ErrCorruptCheckpoint, "core: checkpoint was taken with different GRR parameters")
	case ck.Seed != fresh.Seed:
		return nil, faults.Errorf(faults.ErrCorruptCheckpoint, "core: checkpoint seed %d does not match job seed %d", ck.Seed, fresh.Seed)
	case ck.ChunkSize != fresh.ChunkSize:
		return nil, faults.Errorf(faults.ErrCorruptCheckpoint, "core: checkpoint chunk size %d does not match job chunk size %d", ck.ChunkSize, fresh.ChunkSize)
	case ck.Rows != fresh.Rows:
		return nil, faults.Errorf(faults.ErrCorruptCheckpoint, "core: checkpoint covers %d rows, input has %d", ck.Rows, fresh.Rows)
	case ck.NextChunk < 0 || ck.NextChunk > (ck.Rows+ck.ChunkSize-1)/ck.ChunkSize:
		return nil, faults.Errorf(faults.ErrCorruptCheckpoint, "core: checkpoint chunk index %d out of range", ck.NextChunk)
	case ck.PartialBytes < 0 || ck.RowsEmitted < 0 || ck.RowsEmitted > ck.Rows:
		return nil, faults.Errorf(faults.ErrCorruptCheckpoint, "core: checkpoint accounting out of range")
	case ck.RNGStream != privacy.StreamSeed(ck.Seed, ck.NextChunk):
		return nil, faults.Errorf(faults.ErrCorruptCheckpoint, "core: checkpoint RNG stream position does not match its chunk index")
	}
	return ck, nil
}

// finalize promotes the partial view to the final output, writes the
// metadata, and removes the checkpoint — each step idempotent, so a crash
// between any two of them is repaired by re-running finalize on resume.
func (job *PrivatizeJob) finalize(meta *privacy.ViewMeta) error {
	if _, err := os.Stat(job.partialPath()); err == nil {
		if err := os.Rename(job.partialPath(), job.Out); err != nil {
			return faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("core: publishing view: %w", err))
		}
	} else if _, statErr := os.Stat(job.Out); statErr != nil {
		return faults.Errorf(faults.ErrCorruptCheckpoint, "core: neither partial nor final view exists")
	}
	if err := atomicio.WriteJSON(job.MetaPath, meta); err != nil {
		return err
	}
	if err := os.Remove(job.checkpointPath()); err != nil && !os.IsNotExist(err) {
		return faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("core: removing checkpoint: %w", err))
	}
	return nil
}
